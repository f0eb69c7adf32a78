#include "seq/dna.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace lasagna::seq {

namespace {

/// Code of every byte value: 0..3 for A/C/G/T in either case, kNotABase
/// for anything else.
constexpr std::uint8_t kNotABase = 0xff;

constexpr std::array<std::uint8_t, 256> make_codes() {
  std::array<std::uint8_t, 256> codes{};
  codes.fill(kNotABase);
  constexpr char kUpper[4] = {'A', 'C', 'G', 'T'};
  constexpr char kLower[4] = {'a', 'c', 'g', 't'};
  for (std::uint8_t b = 0; b < 4; ++b) {
    codes[static_cast<unsigned char>(kUpper[b])] = b;
    codes[static_cast<unsigned char>(kLower[b])] = b;
  }
  return codes;
}

/// Uppercase complement of every byte value, '\0' for non-bases.
constexpr std::array<char, 256> make_complements() {
  constexpr auto codes = make_codes();
  constexpr char kChars[4] = {'A', 'C', 'G', 'T'};
  std::array<char, 256> out{};
  for (unsigned c = 0; c < 256; ++c) {
    if (codes[c] != kNotABase) out[c] = kChars[codes[c] ^ 3u];
  }
  return out;
}

constexpr std::array<std::uint8_t, 256> kCodes = make_codes();
constexpr std::array<char, 256> kComplements = make_complements();

[[nodiscard]] std::uint8_t code_of(char c) {
  return kCodes[static_cast<unsigned char>(c)];
}

[[noreturn]] void throw_not_a_base(char c) {
  throw std::invalid_argument(std::string("not an ACGT base: '") + c + "'");
}

}  // namespace

bool try_encode_base(char c, Base& out) {
  const std::uint8_t code = code_of(c);
  if (code == kNotABase) return false;
  out = static_cast<Base>(code);
  return true;
}

Base encode_base(char c) {
  const std::uint8_t code = code_of(c);
  if (code == kNotABase) throw_not_a_base(c);
  return static_cast<Base>(code);
}

void encode_bases(std::string_view s, std::uint8_t* out) {
  std::uint8_t invalid = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[i] = code_of(s[i]);
    invalid |= out[i];
  }
  // Valid codes are 0..3, so any other bit set marks a non-base.
  if ((invalid & ~3u) != 0) {
    throw_not_a_base(*std::find_if(s.begin(), s.end(), [](char c) {
      return code_of(c) == kNotABase;
    }));
  }
}

char decode_base(Base b) {
  static constexpr char kChars[4] = {'A', 'C', 'G', 'T'};
  return kChars[static_cast<std::uint8_t>(b) & 3u];
}

char complement(char c) {
  const char out = kComplements[static_cast<unsigned char>(c)];
  if (out == '\0') throw_not_a_base(c);
  return out;
}

std::string reverse_complement(std::string_view s) {
  std::string out(s.size(), '\0');
  char* dst = out.data() + s.size();
  for (const char c : s) *--dst = complement(c);
  return out;
}

bool is_acgt(std::string_view s) {
  return std::all_of(s.begin(), s.end(), [](char c) {
    Base b;
    return try_encode_base(c, b);
  });
}

std::string sanitize(std::string_view s, std::uint64_t seed) {
  std::string out(s);
  for (std::size_t i = 0; i < out.size(); ++i) {
    Base b;
    if (!try_encode_base(out[i], b)) {
      // splitmix64-style position hash for a reproducible substitute base
      std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (i + 1);
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      out[i] = decode_base(static_cast<Base>((x >> 33) & 3u));
    }
  }
  return out;
}

}  // namespace lasagna::seq
