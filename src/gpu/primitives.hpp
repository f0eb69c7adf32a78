// Thrust-style device primitives used by the pipeline:
//   - sort_pairs:     LSD radix sort of (Key128, value) pairs
//   - merge_pairs:    stable merge of two key-sorted pair sequences
//   - scans:          inclusive/exclusive prefix sums
//   - vector bounds:  batched lower_bound/upper_bound (Algorithm 2, lines 8-9)
//   - gather:         permutation copy (contig layout, section III-D)
//
// Each primitive executes for real on the host pool *and* charges the
// device's modeled clock according to the bytes it moves and the operations
// it performs, so modeled timings reflect what a Thrust implementation of
// the same operation costs on the profiled GPU.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "gpu/device.hpp"
#include "gpu/key128.hpp"

namespace lasagna::gpu {

namespace detail {

/// Number of parallel partitions used by the block-structured primitives.
inline std::size_t partition_count(std::size_t n, const Device& dev) {
  (void)dev;
  // Enough to keep any host pool busy while bounding histogram memory.
  const std::size_t kMax = 32;
  return std::clamp<std::size_t>(n / 4096, 1, kMax);
}

}  // namespace detail

/// In-place stable LSD radix sort of `keys` with `values` permuted alongside.
/// Allocates one double-buffer of the same size on the device, so the caller
/// must leave >= keys.size() * (sizeof(Key128)+sizeof(V)) bytes free.
template <typename V>
void sort_pairs(Device& dev, std::span<Key128> keys, std::span<V> values) {
  const std::size_t n = keys.size();
  if (values.size() != n) {
    throw std::invalid_argument("sort_pairs: key/value size mismatch");
  }
  if (n < 2) return;

  auto tmp_keys = dev.alloc<Key128>(n);
  auto tmp_vals = dev.alloc<V>(n);

  auto& pool = util::ThreadPool::global();
  const std::size_t parts = detail::partition_count(n, dev);
  const std::size_t step = (n + parts - 1) / parts;

  // One pre-pass builds all 16 digit histograms so degenerate passes
  // (every key shares the digit) can be skipped without touching data.
  std::array<std::array<std::uint64_t, 256>, Key128::kDigits> global{};
  {
    std::vector<decltype(global)> local(parts);
    pool.parallel_for_chunked(parts, [&](std::size_t pb, std::size_t pe) {
      for (std::size_t p = pb; p < pe; ++p) {
        const std::size_t begin = p * step;
        const std::size_t end = std::min(n, begin + step);
        auto& h = local[p];
        for (std::size_t i = begin; i < end; ++i) {
          for (unsigned d = 0; d < Key128::kDigits; ++d) {
            ++h[d][keys[i].digit(d)];
          }
        }
      }
    });
    for (const auto& h : local) {
      for (unsigned d = 0; d < Key128::kDigits; ++d) {
        for (unsigned b = 0; b < 256; ++b) global[d][b] += h[d][b];
      }
    }
    dev.charge_kernel(n * sizeof(Key128), n * Key128::kDigits);
  }

  Key128* src_k = keys.data();
  V* src_v = values.data();
  Key128* dst_k = tmp_keys.data();
  V* dst_v = tmp_vals.data();

  for (unsigned d = 0; d < Key128::kDigits; ++d) {
    // Skip passes where all keys fall into a single bucket.
    bool degenerate = false;
    for (unsigned b = 0; b < 256; ++b) {
      if (global[d][b] == n) {
        degenerate = true;
        break;
      }
    }
    if (degenerate) continue;

    // Per-partition digit counts on the *current* ordering.
    std::vector<std::array<std::uint64_t, 256>> counts(parts);
    pool.parallel_for_chunked(parts, [&](std::size_t pb, std::size_t pe) {
      for (std::size_t p = pb; p < pe; ++p) {
        const std::size_t begin = p * step;
        const std::size_t end = std::min(n, begin + step);
        auto& c = counts[p];
        c.fill(0);
        for (std::size_t i = begin; i < end; ++i) ++c[src_k[i].digit(d)];
      }
    });

    // Exclusive scan over (digit, partition) gives stable scatter bases.
    std::vector<std::array<std::uint64_t, 256>> bases(parts);
    std::uint64_t running = 0;
    for (unsigned b = 0; b < 256; ++b) {
      for (std::size_t p = 0; p < parts; ++p) {
        bases[p][b] = running;
        running += counts[p][b];
      }
    }

    pool.parallel_for_chunked(parts, [&](std::size_t pb, std::size_t pe) {
      for (std::size_t p = pb; p < pe; ++p) {
        const std::size_t begin = p * step;
        const std::size_t end = std::min(n, begin + step);
        auto offsets = bases[p];
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t at = offsets[src_k[i].digit(d)]++;
          dst_k[at] = src_k[i];
          dst_v[at] = src_v[i];
        }
      }
    });

    // Radix-sort passes are bandwidth-bound with heavy amplification:
    // besides the read + scattered write of keys and values, the scatter's
    // poor coalescing and the histogram traffic cost several extra
    // effective passes over the data (sustained radix-sort throughputs on
    // real GPUs are a small fraction of peak bandwidth).
    constexpr std::uint64_t kPassAmplification = 8;
    dev.charge_kernel(kPassAmplification * n * (sizeof(Key128) + sizeof(V)),
                      2 * n);
    std::swap(src_k, dst_k);
    std::swap(src_v, dst_v);
  }

  if (src_k != keys.data()) {
    std::copy(src_k, src_k + n, keys.data());
    std::copy(src_v, src_v + n, values.data());
    dev.charge_kernel(2 * n * (sizeof(Key128) + sizeof(V)), n);
  }
}

/// Modeled cost of one kernel: bytes through device memory and operations.
struct KernelCost {
  std::uint64_t bytes_moved = 0;
  std::uint64_t operations = 0;
};

/// What merge_pairs charges for `n` outputs: every pair read and written
/// once, plus the merge-path split searches.
template <typename V>
KernelCost merge_pairs_cost(std::size_t n, const Device& dev) {
  return {2 * n * (sizeof(Key128) + sizeof(V)),
          n + detail::partition_count(n, dev) * 64};
}

/// Stable merge of two key-sorted pair sequences into `out_*`
/// (sizes must satisfy out == a + b). Ties take from `a` first.
template <typename V>
void merge_pairs(Device& dev, std::span<const Key128> a_keys,
                 std::span<const V> a_vals, std::span<const Key128> b_keys,
                 std::span<const V> b_vals, std::span<Key128> out_keys,
                 std::span<V> out_vals) {
  const std::size_t na = a_keys.size();
  const std::size_t nb = b_keys.size();
  const std::size_t n = na + nb;
  if (a_vals.size() != na || b_vals.size() != nb || out_keys.size() != n ||
      out_vals.size() != n) {
    throw std::invalid_argument("merge_pairs: size mismatch");
  }
  if (n == 0) return;

  auto& pool = util::ThreadPool::global();
  const std::size_t parts = detail::partition_count(n, dev);
  const std::size_t step = (n + parts - 1) / parts;

  // Merge-path partitioning: for output diagonal k, find the split (i, j)
  // with i + j = k such that a[0..i) and b[0..j) are exactly the first k
  // outputs of the stable merge.
  auto split_for = [&](std::size_t k) -> std::size_t {
    std::size_t lo = k > nb ? k - nb : 0;
    std::size_t hi = std::min(k, na);
    while (lo < hi) {
      const std::size_t i = lo + (hi - lo) / 2;
      const std::size_t j = k - i;
      // Stability: ties take from `a`, so a[i] <= b[j-1] means a[i] belongs
      // among the first k outputs and the split must move right. This
      // predicate is monotone in i, and the smallest i where it fails also
      // satisfies a[i-1] <= b[j] (the complementary validity condition).
      if (i < na && j > 0 && a_keys[i] <= b_keys[j - 1]) {
        lo = i + 1;
      } else {
        hi = i;
      }
    }
    return lo;
  };

  pool.parallel_for_chunked(parts, [&](std::size_t pb, std::size_t pe) {
    for (std::size_t p = pb; p < pe; ++p) {
      const std::size_t out_begin = p * step;
      const std::size_t out_end = std::min(n, out_begin + step);
      if (out_begin >= out_end) continue;
      std::size_t i = split_for(out_begin);
      std::size_t j = out_begin - i;
      for (std::size_t k = out_begin; k < out_end; ++k) {
        const bool take_a =
            j >= nb || (i < na && a_keys[i] <= b_keys[j]);
        if (take_a) {
          out_keys[k] = a_keys[i];
          out_vals[k] = a_vals[i];
          ++i;
        } else {
          out_keys[k] = b_keys[j];
          out_vals[k] = b_vals[j];
          ++j;
        }
      }
    }
  });

  const KernelCost cost = merge_pairs_cost<V>(n, dev);
  dev.charge_kernel(cost.bytes_moved, cost.operations);
}

/// Exclusive prefix sum; `out` may alias `in`. Returns the total.
template <typename T>
T exclusive_scan(Device& dev, std::span<const T> in, std::span<T> out) {
  if (out.size() != in.size()) {
    throw std::invalid_argument("exclusive_scan: size mismatch");
  }
  T running{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    const T v = in[i];
    out[i] = running;
    running += v;
  }
  dev.charge_kernel(2 * in.size() * sizeof(T), 2 * in.size());
  return running;
}

/// Inclusive prefix sum; `out` may alias `in`. Returns the total.
template <typename T>
T inclusive_scan(Device& dev, std::span<const T> in, std::span<T> out) {
  if (out.size() != in.size()) {
    throw std::invalid_argument("inclusive_scan: size mismatch");
  }
  T running{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    running += in[i];
    out[i] = running;
  }
  dev.charge_kernel(2 * in.size() * sizeof(T), 2 * in.size());
  return running;
}

/// For each needle, index of the first haystack element >= needle.
inline void vector_lower_bound(Device& dev, std::span<const Key128> needles,
                               std::span<const Key128> haystack,
                               std::span<std::uint32_t> out) {
  if (out.size() != needles.size()) {
    throw std::invalid_argument("vector_lower_bound: size mismatch");
  }
  util::ThreadPool::global().parallel_for_chunked(
      needles.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = static_cast<std::uint32_t>(
              std::lower_bound(haystack.begin(), haystack.end(), needles[i]) -
              haystack.begin());
        }
      },
      util::kElementGrain);
  const std::uint64_t probes =
      haystack.empty() ? 1 : 64 - std::countl_zero(haystack.size() | 1);
  dev.charge_kernel(needles.size() * (sizeof(Key128) + sizeof(std::uint32_t)) +
                        needles.size() * probes * sizeof(Key128),
                    needles.size() * probes);
}

/// For each needle, index of the first haystack element > needle.
inline void vector_upper_bound(Device& dev, std::span<const Key128> needles,
                               std::span<const Key128> haystack,
                               std::span<std::uint32_t> out) {
  if (out.size() != needles.size()) {
    throw std::invalid_argument("vector_upper_bound: size mismatch");
  }
  util::ThreadPool::global().parallel_for_chunked(
      needles.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = static_cast<std::uint32_t>(
              std::upper_bound(haystack.begin(), haystack.end(), needles[i]) -
              haystack.begin());
        }
      },
      util::kElementGrain);
  const std::uint64_t probes =
      haystack.empty() ? 1 : 64 - std::countl_zero(haystack.size() | 1);
  dev.charge_kernel(needles.size() * (sizeof(Key128) + sizeof(std::uint32_t)) +
                        needles.size() * probes * sizeof(Key128),
                    needles.size() * probes);
}

/// out[i] = src[indices[i]].
template <typename T, typename I>
void gather(Device& dev, std::span<const T> src, std::span<const I> indices,
            std::span<T> out) {
  if (out.size() != indices.size()) {
    throw std::invalid_argument("gather: size mismatch");
  }
  util::ThreadPool::global().parallel_for_chunked(
      indices.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = src[static_cast<std::size_t>(indices[i])];
        }
      },
      util::kElementGrain);
  dev.charge_kernel(indices.size() * (2 * sizeof(T) + sizeof(I)),
                    indices.size());
}

/// out[indices[i]] = src[i] (indices must be unique).
template <typename T, typename I>
void scatter(Device& dev, std::span<const T> src, std::span<const I> indices,
             std::span<T> out) {
  if (src.size() != indices.size()) {
    throw std::invalid_argument("scatter: size mismatch");
  }
  util::ThreadPool::global().parallel_for_chunked(
      indices.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[static_cast<std::size_t>(indices[i])] = src[i];
        }
      },
      util::kElementGrain);
  dev.charge_kernel(indices.size() * (2 * sizeof(T) + sizeof(I)),
                    indices.size());
}

/// Sum reduction.
template <typename T>
T reduce_sum(Device& dev, std::span<const T> in) {
  T total{};
  for (const T& v : in) total += v;
  dev.charge_kernel(in.size() * sizeof(T), in.size());
  return total;
}

}  // namespace lasagna::gpu
