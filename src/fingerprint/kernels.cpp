#include "fingerprint/kernels.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "kernel/backend.hpp"
#include "kernel/dump.hpp"
#include "obs/metrics.hpp"
#include "seq/dna.hpp"
#include "util/modmath.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::fingerprint {

using util::mulmod;

PlaceTable::PlaceTable(const FingerprintConfig& cfg, unsigned max_length)
    : cfg_(cfg), pow_a_(max_length), pow_b_(max_length) {
  std::uint64_t a = 1 % cfg.primary.modulus;
  std::uint64_t b = 1 % cfg.secondary.modulus;
  for (unsigned i = 0; i < max_length; ++i) {
    pow_a_[i] = a;
    pow_b_[i] = b;
    a = mulmod(a, cfg.primary.radix, cfg.primary.modulus);
    b = mulmod(b, cfg.secondary.radix, cfg.secondary.modulus);
  }
}

namespace {

/// Host-side encoded batch: base codes, one byte per base, row-major with
/// a fixed stride (reads shorter than the stride leave a zero tail).
struct EncodedBatch {
  std::vector<std::uint8_t> codes;
  std::vector<std::uint16_t> lengths;
  unsigned stride = 0;
  unsigned count = 0;
};

/// Size `out`'s arrays to the batch, keeping their storage: nothing is
/// filled here, encode_and_clear zeroes each row's tail.
void size_outputs(BatchFingerprints& out, std::size_t total) {
  for (auto* lanes : {&out.prefix, &out.suffix}) {
    if (lanes->capacity() < total) lanes->clear();  // grow without a copy
    lanes->resize(total);
  }
}

/// Encode every read into `batch` and zero the lanes past each read's
/// length in the codes and both output arrays (the backends' canonical
/// form; the valid lanes are the kernel's to write). Rows are independent,
/// so this runs on the pool.
void encode_and_clear(std::span<const std::string> reads, EncodedBatch& batch,
                      BatchFingerprints& out) {
  const std::size_t stride = batch.stride;
  util::ThreadPool::global().parallel_for_chunked(
      batch.count,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const std::string& read = reads[r];
          batch.lengths[r] = static_cast<std::uint16_t>(read.size());
          std::uint8_t* codes = batch.codes.data() + r * stride;
          seq::encode_bases(read, codes);
          std::fill(codes + read.size(), codes + stride, std::uint8_t{0});
          std::fill(out.prefix.begin() + r * stride + read.size(),
                    out.prefix.begin() + (r + 1) * stride, gpu::Key128{});
          std::fill(out.suffix.begin() + r * stride + read.size(),
                    out.suffix.begin() + (r + 1) * stride, gpu::Key128{});
        }
      },
      std::max<std::size_t>(1, util::kElementGrain / std::max<std::size_t>(
                                                         1, stride)));
}

}  // namespace

BatchFingerprints compute_batch_fingerprints(gpu::Device& dev,
                                             std::span<const std::string> reads,
                                             const PlaceTable& places,
                                             KernelStrategy strategy,
                                             gpu::StreamPair* streams) {
  BatchFingerprints out;
  compute_batch_fingerprints(dev, reads, places, strategy, streams, out);
  return out;
}

void compute_batch_fingerprints(gpu::Device& dev,
                                std::span<const std::string> reads,
                                const PlaceTable& places,
                                KernelStrategy strategy,
                                gpu::StreamPair* streams,
                                BatchFingerprints& out) {
  EncodedBatch batch;
  batch.count = static_cast<unsigned>(reads.size());
  for (const auto& r : reads) {
    if (r.size() > places.max_length()) {
      throw std::invalid_argument(
          "read longer than the PlaceTable max_length");
    }
    if (r.size() > 0xffff) {
      throw std::invalid_argument("read longer than 65535 bases");
    }
    batch.stride = std::max(batch.stride, static_cast<unsigned>(r.size()));
  }
  const std::size_t total =
      static_cast<std::size_t>(batch.count) * batch.stride;
  out.stride = batch.stride;
  size_outputs(out, total);
  if (reads.empty()) return;
  batch.codes.resize(total);
  batch.lengths.resize(batch.count);
  encode_and_clear(reads, batch, out);

  const FingerprintConfig& cfg = places.config();
  kernel::FingerprintJob job;
  job.count = batch.count;
  job.stride = batch.stride;
  job.codes = batch.codes;
  job.lengths = batch.lengths;
  job.primary = cfg.primary;
  job.secondary = cfg.secondary;
  job.pow_primary = places.primary_table();
  job.pow_secondary = places.secondary_table();
  job.prefix = out.prefix.data();
  job.suffix = out.suffix.data();

  kernel::DeviceContext ctx{&dev, streams,
                            strategy == KernelStrategy::kThreadPerRead};
  static obs::Histogram& wall_ns =
      obs::MetricsRegistry::global().histogram("kernel.fingerprint.wall_ns");
  const auto t0 = std::chrono::steady_clock::now();
  kernel::active_backend().fingerprint(job, &ctx);
  wall_ns.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count());

  if (kernel::CaptureSession* capture = kernel::CaptureSession::active()) {
    capture->record(
        kernel::KernelId::kFingerprint,
        {batch.count, batch.stride, cfg.primary.radix, cfg.primary.modulus,
         cfg.secondary.radix, cfg.secondary.modulus, 0, 0},
        kernel::concat_bytes(
            {std::as_bytes(std::span<const std::uint8_t>(batch.codes)),
             std::as_bytes(std::span<const std::uint16_t>(batch.lengths))}),
        kernel::concat_bytes(
            {std::as_bytes(std::span<const gpu::Key128>(out.prefix)),
             std::as_bytes(std::span<const gpu::Key128>(out.suffix))}));
  }
}

}  // namespace lasagna::fingerprint
