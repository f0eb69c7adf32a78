// Multi-backend harness for the pipeline's three hot inner kernels
// (UCLA-VAST/minimap2-acceleration pattern, see DESIGN.md):
//
//   1. fingerprint generation  — all prefix/suffix Rabin-Karp fingerprints
//                                of a batch of encoded reads,
//   2. match bounds            — batched lower/upper bound of suffix
//                                fingerprints in a sorted prefix window
//                                (Algorithm 2 lines 8-9),
//   3. radix sort              — stable sort of (Key128, u64) pairs by key
//                                (LSD on the simulated device, MSD on the
//                                host backends; kernel/host_kernels.hpp).
//
// A Backend is one implementation of all three over plain host memory: the
// simulated GPU (the modeled-clock reference the paper's numbers come
// from), a scalar host path, and an AVX2-vectorized host path. All
// backends produce byte-identical outputs — correctness is pinned by the
// dump/replay golden testbed (kernel/dump.hpp, kernel/replay.hpp) — so new
// backends (CUDA, HLS) drop in behind the same interface and are verified
// by byte-compare against captured pipeline workloads.
//
// Output canonical form: fingerprint outputs are row-major count x stride
// Key128 arrays; entries at [r][i] with i >= lengths[r] are ZERO (callers
// pre-zero the arrays, backends write only valid lanes). This makes every
// backend's output — and therefore every dump — directly byte-comparable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fingerprint/rabin_karp.hpp"
#include "gpu/device_buffer.hpp"
#include "gpu/key128.hpp"

namespace lasagna::gpu {
class Device;
class StreamPair;
}  // namespace lasagna::gpu

namespace lasagna::kernel {

/// The three kernels behind the harness (stable ids — part of the dump
/// format, never renumber).
enum class KernelId : std::uint32_t {
  kFingerprint = 1,
  kMatchBounds = 2,
  kSortPairs = 3,
};

[[nodiscard]] const char* kernel_name(KernelId id);

/// The four device buffers a simulated match_bounds stages through: the
/// needle and haystack uploads and the two bound downloads. A caller that
/// matches many windows (the reduce) allocates one set sized to its window
/// and passes it in the DeviceContext; otherwise the backend allocates a
/// set sized to the call. Either way the allocation order is this one.
struct MatchBuffers {
  MatchBuffers(gpu::Device& device, std::size_t needle_count,
               std::size_t haystack_count);

  gpu::DeviceBuffer<gpu::Key128> needles;
  gpu::DeviceBuffer<gpu::Key128> haystack;
  gpu::DeviceBuffer<std::uint32_t> lower;
  gpu::DeviceBuffer<std::uint32_t> upper;
};

/// Where a simulated-device kernel runs. `device` is charged. Each call
/// takes the next leg of `streams`, so double-buffered callers overlap one
/// call's transfers with the neighbouring call's kernel; a null `streams`
/// means a synchronous pair, both legs on the default stream.
/// `thread_per_read` picks the naive fingerprint strategy over the
/// block-per-read scan, and `match_buffers` are caller-owned match_bounds
/// buffers. Host backends ignore the context; pipeline call sites pass it
/// whatever the backend.
struct DeviceContext {
  gpu::Device* device = nullptr;
  gpu::StreamPair* streams = nullptr;
  bool thread_per_read = false;
  MatchBuffers* match_buffers = nullptr;
};

/// One fingerprint-generation workload: a batch of encoded reads
/// (row-major, fixed stride) plus the hash configuration and precomputed
/// place-value tables. Outputs are caller-allocated, ZEROED, count*stride
/// Key128 arrays (prefix[r*stride+i] = fingerprint of read r's prefix of
/// length i+1; suffix[r*stride+i] = fingerprint of the suffix starting at
/// i; hi = primary hash, lo = secondary).
struct FingerprintJob {
  unsigned count = 0;   ///< reads in the batch
  unsigned stride = 0;  ///< row stride = max read length in the batch
  std::span<const std::uint8_t> codes;     ///< count*stride base codes 0..3
  std::span<const std::uint16_t> lengths;  ///< count read lengths
  fingerprint::HashParams primary;
  fingerprint::HashParams secondary;
  std::span<const std::uint64_t> pow_primary;    ///< sigma_a^i mod q_a
  std::span<const std::uint64_t> pow_secondary;  ///< sigma_b^i mod q_b
  gpu::Key128* prefix = nullptr;  ///< out, count*stride, pre-zeroed
  gpu::Key128* suffix = nullptr;  ///< out, count*stride, pre-zeroed
};

/// One kernel-backend implementation. Methods are synchronous and
/// thread-compatible (no shared mutable state); the same Backend instance
/// may be used from several threads on disjoint data.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether this backend can run on the current host (cpuid for the
  /// vector backends; always true for scalar and simulated).
  [[nodiscard]] virtual bool available() const = 0;

  /// True when the backend executes on the simulated device and charges
  /// its modeled clock (it then needs a DeviceContext with a device).
  [[nodiscard]] virtual bool uses_device() const { return false; }

  virtual void fingerprint(const FingerprintJob& job,
                           DeviceContext* ctx) = 0;

  /// For each needle: lower[i] = index of the first haystack element >=
  /// needles[i], upper[i] = index of the first element > needles[i].
  /// `haystack` must be sorted ascending.
  virtual void match_bounds(std::span<const gpu::Key128> needles,
                            std::span<const gpu::Key128> haystack,
                            std::span<std::uint32_t> lower,
                            std::span<std::uint32_t> upper,
                            DeviceContext* ctx) = 0;

  /// Stable sort by key of `keys` with `values` permuted alongside.
  virtual void sort_pairs(std::span<gpu::Key128> keys,
                          std::span<std::uint64_t> values,
                          DeviceContext* ctx) = 0;
};

// ---- registry --------------------------------------------------------------

/// The simulated-GPU reference backend (always available).
[[nodiscard]] Backend& simulated_backend();

/// The scalar host backend (always available).
[[nodiscard]] Backend& scalar_backend();

/// The AVX2 host backend. Always constructible; available() is false when
/// the build disabled vector codegen (LASAGNA_AVX2=OFF) or the running CPU
/// lacks AVX2 — callers must check before dispatching to it.
[[nodiscard]] Backend& avx2_backend();

/// Every registered backend, in registry order (simulated, scalar, avx2).
[[nodiscard]] std::vector<Backend*> all_backends();

/// Exact-name lookup ("simulated", "scalar", "avx2"); nullptr if unknown.
/// Returns unavailable backends too — replay tools decide how to skip.
[[nodiscard]] Backend* find_backend(std::string_view name);

/// Resolve a user-facing backend selection and log one line describing the
/// choice. "" and "simulated" pick the simulated device; "host" and "auto"
/// pick the fastest available host backend (avx2 if the CPU supports it,
/// else scalar); "avx2" falls back to scalar with a logged warning when
/// AVX2 is unavailable. Throws std::invalid_argument on unknown names.
[[nodiscard]] Backend& resolve_backend(std::string_view name);

/// The process-wide backend the pipeline dispatch sites use (defaults to
/// the simulated device). Install with ScopedBackend.
[[nodiscard]] Backend& active_backend();

/// RAII install of the active backend (restores the previous selection).
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend& backend);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  Backend* previous_;
};

}  // namespace lasagna::kernel
