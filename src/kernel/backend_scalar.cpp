// Scalar host backend, built for the baseline ISA: the portable fallback
// (runs on any CPU) and the wall-clock baseline the AVX2 backend's
// fingerprint speedup gate is measured against. Its modular arithmetic
// goes through util::mulmod's 128-bit division — the very cost the AVX2
// path's Shoup multiplication removes.
//
// It also defines the two kernels both host backends share
// (kernel/host_kernels.hpp), which are bound by memory traffic rather
// than arithmetic:
//
//   * sort_pairs — a stable MSD radix sort. Fingerprint keys use 61/62-bit
//     moduli, so an LSD sort makes all 16 digit passes; MSD scatters once
//     per level on the most significant digit on which a bucket's keys
//     differ, and buckets shrink below the insertion-sort cutoff after
//     about three levels. Large inputs sort their top-level buckets on
//     the thread pool.
//   * match_bounds — the reduce's suffix windows are sorted like the
//     prefix window they search, so an ascending run of needles is
//     answered by one merge-join that gallops forward from the previous
//     needle's bounds instead of binary-searching the whole window per
//     needle. Needles past the first descent take std::lower_bound and
//     std::upper_bound.
//
// Both backends' fingerprint kernels split a large job's reads into
// strip-aligned ranges on the thread pool (for_each_read_range); each read
// is independent, so the split never changes a byte.
#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "gpu/key128.hpp"
#include "kernel/backend.hpp"
#include "kernel/host_kernels.hpp"
#include "util/modmath.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::kernel {

namespace {

using gpu::Key128;
using util::addmod;
using util::mulmod;

void scalar_fingerprint(const FingerprintJob& job) {
  const std::uint64_t qa = job.primary.modulus;
  const std::uint64_t qb = job.secondary.modulus;
  const std::uint64_t ra = job.primary.radix;
  const std::uint64_t rb = job.secondary.radix;
  host::for_each_read_range(job, [&](unsigned begin, unsigned end) {
    for (unsigned r = begin; r < end; ++r) {
      const unsigned len = job.lengths[r];
      const std::uint8_t* codes =
          job.codes.data() + static_cast<std::size_t>(r) * job.stride;
      Key128* prefix_row =
          job.prefix + static_cast<std::size_t>(r) * job.stride;
      Key128* suffix_row =
          job.suffix + static_cast<std::size_t>(r) * job.stride;

      std::uint64_t ha = 0;
      std::uint64_t hb = 0;
      for (unsigned i = 0; i < len; ++i) {
        ha = addmod(mulmod(ha, ra, qa), codes[i] % qa, qa);
        hb = addmod(mulmod(hb, rb, qb), codes[i] % qb, qb);
        prefix_row[i] = Key128{ha, hb};
      }
      std::uint64_t sa = 0;
      std::uint64_t sb = 0;
      for (unsigned i = len; i-- > 0;) {
        sa = addmod(mulmod(codes[i] % qa, job.pow_primary[len - 1 - i], qa),
                    sa, qa);
        sb = addmod(
            mulmod(codes[i] % qb, job.pow_secondary[len - 1 - i], qb), sb,
            qb);
        suffix_row[i] = Key128{sa, sb};
      }
    }
  });
}

/// Reads per pool chunk of a fingerprint job with rows of `stride` bases.
std::size_t fingerprint_grain(unsigned stride) {
  const std::size_t reads =
      (util::kElementGrain + std::max(stride, 1u) - 1) / std::max(stride, 1u);
  return (reads + host::kFingerprintStrip - 1) / host::kFingerprintStrip *
         host::kFingerprintStrip;
}

/// n keys with their values, at the same offset in the caller's arrays or
/// in the scratch arrays.
struct Pairs {
  Key128* keys;
  std::uint64_t* values;

  [[nodiscard]] Pairs at(std::size_t offset) const {
    return {keys + offset, values + offset};
  }
  void copy_to(Pairs to, std::size_t n) const {
    std::copy(keys, keys + n, to.keys);
    std::copy(values, values + n, to.values);
  }
};

struct OperatorDelete {
  void operator()(void* p) const { ::operator delete(p); }
};

/// n elements of a trivial type, left uninitialized (a zero fill would be
/// one more pass over memory): msd_sort writes every scratch element
/// before it reads it.
template <typename T>
std::unique_ptr<T[], OperatorDelete> uninitialized_array(std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  return std::unique_ptr<T[], OperatorDelete>(
      static_cast<T*>(::operator new(n * sizeof(T))));
}

/// Stable insertion sort of the n pairs at `p`.
void insertion_sort(Pairs p, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const Key128 key = p.keys[i];
    const std::uint64_t value = p.values[i];
    std::size_t j = i;
    for (; j > 0 && key < p.keys[j - 1]; --j) {
      p.keys[j] = p.keys[j - 1];
      p.values[j] = p.values[j - 1];
    }
    p.keys[j] = key;
    p.values[j] = value;
  }
}

/// Sorts the n pairs at `src`, whose keys agree on every digit from
/// `digits` up, by the digits below; the result lands at `src` when
/// `src_is_out`, else at `dst`. One level scatters `src` into `dst` by the
/// most significant digit on which the keys differ, then sorts each bucket
/// with the two arrays' roles swapped. With `fan_out`, the buckets sort
/// concurrently on the global pool.
void msd_sort(Pairs src, Pairs dst, std::size_t n, unsigned digits,
              bool src_is_out, bool fan_out) {
  const Pairs out = src_is_out ? src : dst;
  if (n <= host::kInsertionSortMax) {
    if (!src_is_out) src.copy_to(dst, n);
    insertion_sort(out, n);
    return;
  }

  std::array<std::size_t, 257> start{};
  unsigned d = digits;
  do {
    if (d == 0) {  // every key equal: the input order is the sorted order
      if (!src_is_out) src.copy_to(dst, n);
      return;
    }
    --d;
    start.fill(0);
    for (std::size_t i = 0; i < n; ++i) ++start[src.keys[i].digit(d) + 1];
  } while (start[src.keys[0].digit(d) + 1] == n);

  for (unsigned b = 0; b < 256; ++b) start[b + 1] += start[b];
  std::array<std::size_t, 256> next;
  std::copy(start.begin(), start.end() - 1, next.begin());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = next[src.keys[i].digit(d)]++;
    dst.keys[at] = src.keys[i];
    dst.values[at] = src.values[i];
  }

  auto sort_bucket = [&](unsigned b) {
    msd_sort(dst.at(start[b]), src.at(start[b]), start[b + 1] - start[b], d,
             !src_is_out, false);
  };
  if (!fan_out) {
    for (unsigned b = 0; b < 256; ++b) {
      if (start[b + 1] > start[b]) sort_bucket(b);
    }
    return;
  }
  // Fan out over the non-empty buckets only: fingerprint keys fill 32 of
  // the top digit's 256 values.
  std::vector<unsigned> buckets;
  for (unsigned b = 0; b < 256; ++b) {
    if (start[b + 1] > start[b]) buckets.push_back(b);
  }
  util::ThreadPool::global().parallel_for_chunked(
      buckets.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) sort_bucket(buckets[i]);
      },
      1);
}

/// First index in [from, n] where `advance` turns false (it must hold on a
/// prefix of `hay` only): probe from, from+1, from+3, ... until it fails,
/// then bisect the last step.
template <typename Advance>
std::size_t gallop(const Key128* hay, std::size_t n, std::size_t from,
                   Advance advance) {
  std::size_t lo = from;
  std::size_t step = 1;
  while (from + step <= n && advance(hay[from + step - 1])) {
    lo = from + step;
    step *= 2;
  }
  const std::size_t hi = std::min(from + step - 1, n);
  return static_cast<std::size_t>(
      std::partition_point(hay + lo, hay + hi, advance) - hay);
}

class ScalarBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override { return "scalar"; }
  [[nodiscard]] bool available() const override { return true; }

  void fingerprint(const FingerprintJob& job, DeviceContext*) override {
    scalar_fingerprint(job);
  }

  void match_bounds(std::span<const Key128> needles,
                    std::span<const Key128> haystack,
                    std::span<std::uint32_t> lower,
                    std::span<std::uint32_t> upper, DeviceContext*) override {
    if (lower.size() != needles.size() || upper.size() != needles.size()) {
      throw std::invalid_argument("match_bounds: output size mismatch");
    }
    for (std::size_t i =
             host::match_sorted_prefix(needles, haystack, lower, upper);
         i < needles.size(); ++i) {
      lower[i] = static_cast<std::uint32_t>(
          std::lower_bound(haystack.begin(), haystack.end(), needles[i]) -
          haystack.begin());
      upper[i] = static_cast<std::uint32_t>(
          std::upper_bound(haystack.begin(), haystack.end(), needles[i]) -
          haystack.begin());
    }
  }

  void sort_pairs(std::span<Key128> keys, std::span<std::uint64_t> values,
                  DeviceContext*) override {
    if (keys.size() != values.size()) {
      throw std::invalid_argument("sort_pairs: key/value size mismatch");
    }
    host::sort_pairs(keys, values);
  }
};

}  // namespace

std::size_t host::fingerprint_fan_out_min(unsigned stride) {
  return 2 * fingerprint_grain(stride);
}

void host::for_each_read_range(
    const FingerprintJob& job,
    const std::function<void(unsigned, unsigned)>& rows) {
  if (job.count < fingerprint_fan_out_min(job.stride)) {
    rows(0, job.count);
    return;
  }
  const std::size_t strips =
      (job.count + kFingerprintStrip - 1) / kFingerprintStrip;
  util::ThreadPool::global().parallel_for_chunked(
      strips,
      [&](std::size_t begin, std::size_t end) {
        rows(static_cast<unsigned>(begin * kFingerprintStrip),
             static_cast<unsigned>(
                 std::min<std::size_t>(end * kFingerprintStrip, job.count)));
      },
      fingerprint_grain(job.stride) / kFingerprintStrip);
}

void host::sort_pairs(std::span<Key128> keys,
                      std::span<std::uint64_t> values) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  const auto tmp_keys = uninitialized_array<Key128>(n);
  const auto tmp_values = uninitialized_array<std::uint64_t>(n);
  msd_sort({keys.data(), values.data()}, {tmp_keys.get(), tmp_values.get()},
           n, Key128::kDigits, true, n >= kSortFanOutMin);
}

std::size_t host::match_sorted_prefix(std::span<const Key128> needles,
                                      std::span<const Key128> haystack,
                                      std::span<std::uint32_t> lower,
                                      std::span<std::uint32_t> upper) {
  const Key128* hay = haystack.data();
  const std::size_t n = haystack.size();
  std::size_t from = 0;
  for (std::size_t i = 0; i < needles.size(); ++i) {
    const Key128& x = needles[i];
    if (i > 0 && x <= needles[i - 1]) {
      if (x < needles[i - 1]) return i;
      lower[i] = lower[i - 1];
      upper[i] = upper[i - 1];
      continue;
    }
    // The previous needle is smaller, so both bounds lie at or past its
    // upper bound.
    const std::size_t lo =
        gallop(hay, n, from, [&x](const Key128& h) { return h < x; });
    from = gallop(hay, n, lo, [&x](const Key128& h) { return !(x < h); });
    lower[i] = static_cast<std::uint32_t>(lo);
    upper[i] = static_cast<std::uint32_t>(from);
  }
  return needles.size();
}

Backend& scalar_backend() {
  static ScalarBackend backend;
  return backend;
}

}  // namespace lasagna::kernel
