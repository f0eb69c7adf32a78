// What both host backends share, defined in backend_scalar.cpp (baseline
// ISA): the sort and merge-join kernels, which are bound by memory traffic
// and so have no AVX2 variant, and the fan-out of a fingerprint job over
// the thread pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "gpu/key128.hpp"
#include "kernel/backend.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::kernel::host {

/// Buckets of at most this many pairs finish with a stable insertion sort
/// instead of another radix level.
inline constexpr std::size_t kInsertionSortMax = 32;

/// From this many pairs up, sort_pairs sorts its top-level buckets
/// concurrently on util::ThreadPool::global().
inline constexpr std::size_t kSortFanOutMin = 2 * util::kElementGrain;

/// Reads per fingerprint strip: the AVX2 kernel's four 64-bit lanes. Every
/// read range for_each_read_range hands out starts on a strip boundary.
inline constexpr unsigned kFingerprintStrip = 4;

/// Reads a fingerprint job with rows of `stride` bases needs before
/// for_each_read_range fans it out: two pool chunks of at least
/// kElementGrain bases each, in whole strips.
[[nodiscard]] std::size_t fingerprint_fan_out_min(unsigned stride);

/// Runs `rows(begin, end)` over read ranges that cover [0, job.count) once:
/// inline as one range below fingerprint_fan_out_min(job.stride) reads,
/// else concurrently on util::ThreadPool::global(). Reads are independent,
/// so the output does not depend on the split.
void for_each_read_range(const FingerprintJob& job,
                         const std::function<void(unsigned, unsigned)>& rows);

/// Stable MSD radix sort of `keys` (8-bit digits, most significant
/// non-degenerate digit first, out of place) with `values` permuted
/// alongside. Sizes must match.
void sort_pairs(std::span<gpu::Key128> keys, std::span<std::uint64_t> values);

/// Galloping merge-join for the ascending prefix of `needles`: lower[i] and
/// upper[i] as Backend::match_bounds defines them, each searched forward
/// from the previous needle's bounds. Returns the length of the prefix it
/// answered; the first needle below its predecessor ends it, and the caller
/// answers the rest by binary search. `haystack` must be sorted ascending.
[[nodiscard]] std::size_t match_sorted_prefix(
    std::span<const gpu::Key128> needles,
    std::span<const gpu::Key128> haystack, std::span<std::uint32_t> lower,
    std::span<std::uint32_t> upper);

}  // namespace lasagna::kernel::host
