// DNA alphabet utilities: 2-bit encoding and Watson-Crick complements.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace lasagna::seq {

/// 2-bit base codes. Order chosen so that complement(code) == code ^ 3.
enum class Base : std::uint8_t { A = 0, C = 1, G = 2, T = 3 };

/// Encode an IUPAC character; A/C/G/T (either case) only.
/// Returns false for anything else (N etc.), leaving `out` untouched.
[[nodiscard]] bool try_encode_base(char c, Base& out);

/// Encode, throwing std::invalid_argument on non-ACGT input.
[[nodiscard]] Base encode_base(char c);

/// Encode the s.size() bases of `s` into `out`, one code per byte; throws
/// std::invalid_argument, as encode_base does, if any is not ACGT.
void encode_bases(std::string_view s, std::uint8_t* out);

/// Decode a 2-bit code to an uppercase character.
[[nodiscard]] char decode_base(Base b);

/// Watson-Crick complement of one base (A<->T, C<->G).
[[nodiscard]] constexpr Base complement(Base b) {
  return static_cast<Base>(static_cast<std::uint8_t>(b) ^ 3u);
}

/// Complement of a character (ACGT, case-insensitive; returns uppercase).
[[nodiscard]] char complement(char c);

/// Reverse complement of a sequence string.
[[nodiscard]] std::string reverse_complement(std::string_view s);

/// True if every character is A/C/G/T (either case).
[[nodiscard]] bool is_acgt(std::string_view s);

/// Replace non-ACGT characters with a deterministic pseudo-random base
/// (seeded by position), as assembler preprocessing commonly does with 'N'.
[[nodiscard]] std::string sanitize(std::string_view s, std::uint64_t seed);

}  // namespace lasagna::seq
