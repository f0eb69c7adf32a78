#include "core/map_phase.hpp"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "gpu/stream.hpp"
#include "io/fault_injector.hpp"
#include "obs/trace.hpp"
#include "seq/async_batch_stream.hpp"
#include "seq/dna.hpp"
#include "seq/read_store.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::core {

namespace {

// The PlaceTable wants the longest read length up front; Illumina reads
// are uniform, so we allocate for the longest supported and slice later.
constexpr unsigned kMaxReadLength = 512;

/// Batch size in *input* bases: each input base occupies two strands
/// (forward + reverse complement) on the device, and each strand base
/// costs 1 byte of codes plus two 16-byte fingerprints; keep 1/8 of the
/// device free for the lengths array and allocator slack.
std::uint64_t batch_bases_for(const gpu::Device& dev) {
  constexpr std::uint64_t per_base = 2 * (1 + 2 * sizeof(gpu::Key128)) + 2;
  const std::uint64_t usable = dev.memory().capacity() * 7 / 8;
  return std::max<std::uint64_t>(64, usable / per_base);
}

/// One batch's payload between the fingerprint stage and the emission
/// stage: everything emission needs, with the strand strings dropped. The
/// map refills one job batch after batch, so its arrays are allocated
/// once.
struct EmissionJob {
  std::vector<unsigned> lengths;        ///< per strand (2 per read)
  std::vector<std::uint32_t> read_ids;  ///< global id per read
  fingerprint::BatchFingerprints fps;
};

/// Range-filter one input batch and build its interleaved strands (forward
/// at 2i, reverse complement at 2i+1, matching the vertex ids). Returns
/// false when no read of the batch falls in the assigned range.
bool prepare_batch(const seq::ReadBatch& batch, const MapOptions& options,
                   std::vector<std::string>& strands, EmissionJob& job) {
  const std::uint64_t batch_first = batch.first_id;
  strands.clear();
  job.lengths.clear();
  job.read_ids.clear();
  std::vector<std::uint32_t> keep;
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    const std::uint64_t global_id = batch_first + i;
    if (global_id < options.first_read ||
        global_id >= options.first_read + options.max_reads) {
      continue;
    }
    if (batch.reads[i].size() > std::numeric_limits<std::uint16_t>::max()) {
      // read_lengths stores uint16; a silent cast would corrupt every
      // overhang computed downstream.
      throw std::runtime_error(
          "read " + std::to_string(global_id) + " is " +
          std::to_string(batch.reads[i].size()) +
          " bases; the pipeline supports reads up to 65535 bases");
    }
    keep.push_back(i);
    job.read_ids.push_back(static_cast<std::uint32_t>(global_id));
  }
  if (keep.empty()) return false;

  strands.resize(keep.size() * 2);
  job.lengths.resize(keep.size() * 2);
  util::ThreadPool::global().parallel_for_chunked(
      keep.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::string& read = batch.reads[keep[i]];
          strands[2 * i] = read;
          strands[2 * i + 1] = seq::reverse_complement(read);
          job.lengths[2 * i] = static_cast<unsigned>(read.size());
          job.lengths[2 * i + 1] = static_cast<unsigned>(read.size());
        }
      },
      util::kElementGrain);
  return true;
}

/// Deterministic parallel tuple emission in two steps. stage() splits the
/// per-strand loop into contiguous strand chunks staged independently on
/// the thread pool; drain() appends them to the partition files, each
/// file's chunks in ascending chunk order. Because chunks are contiguous,
/// the bytes appended per partition are the concatenation in global strand
/// order — identical for any chunk count (and therefore any pool size), and
/// identical to the old serial loop. Distinct partitions are distinct
/// files, so they drain concurrently without changing a byte.
class TupleEmitter {
 public:
  TupleEmitter(MapResult& result, const MapOptions& options)
      : result_(result),
        options_(options) {}

  /// Stage and drain one batch's tuples (parallel inside).
  void emit(const EmissionJob& job) {
    stage(job);
    drain();
  }

  /// Stage one batch's tuples. The staging is the emitter's own, so the
  /// batch's fingerprints may be overwritten once this returns; the
  /// previous batch's drain must have finished.
  void stage(const EmissionJob& job) {
    const std::size_t n = job.lengths.size();
    chunks_ = 0;
    if (n == 0) return;
    obs::WallSpan span;
    if (obs::Tracer* tracer = obs::Tracer::active()) {
      span = obs::WallSpan(*tracer, tracer->track("host.emit"),
                           "emit:" + std::to_string(job.read_ids.front()),
                           {{"strands", static_cast<std::int64_t>(n)}});
    }
    tuples_ = 0;
    for (const unsigned len : job.lengths) {
      if (len > options_.min_overlap) {
        tuples_ += 2 * (len - options_.min_overlap);
      }
    }
    // Chunks of at least kElementGrain tuples (one for a small batch), as
    // parallel_for_chunked sizes its own, unless the caller fixed a count.
    const std::size_t chunk_count =
        options_.emission_chunks > 0
            ? options_.emission_chunks
            : std::clamp<std::size_t>(tuples_ / util::kElementGrain, 1,
                                      util::ThreadPool::global().size() * 4);
    chunks_ = std::min(n, chunk_count);
    const std::size_t step = (n + chunks_ - 1) / chunks_;

    if (stages_.size() < chunks_) stages_.resize(chunks_);
    for (std::size_t c = 0; c < chunks_; ++c) stages_[c].reset(kMaxReadLength);

    if (result_.read_lengths.size() <= job.read_ids.back()) {
      result_.read_lengths.resize(job.read_ids.back() + 1, 0);
    }

    util::ThreadPool::global().parallel_for_chunked(
        chunks_, [&](std::size_t cb, std::size_t ce) {
          for (std::size_t c = cb; c < ce; ++c) {
            stage_chunk(job, c * step, std::min(n, c * step + step),
                        stages_[c]);
          }
        });

    for (std::size_t c = 0; c < chunks_; ++c) {
      result_.tuples_emitted += stages_[c].tuples;
      result_.total_bases += stages_[c].bases;
      result_.max_read_length =
          std::max(result_.max_read_length, stages_[c].max_length);
    }
    result_.read_count += static_cast<std::uint32_t>(job.read_ids.size());
  }

  /// Append the staged batch to the partition files: one pool task per run
  /// of non-empty partitions, sized so each task writes about kElementGrain
  /// tuples; a small batch drains inline. Every partition's writer is
  /// opened first, so the concurrent appends only look the sets up; each
  /// partition takes its chunks in ascending chunk order.
  void drain() {
    targets_.clear();
    for (const auto& [set, role] :
         {std::pair{result_.suffixes.get(), &ChunkStage::sfx},
          std::pair{result_.prefixes.get(), &ChunkStage::pfx}}) {
      for (std::size_t key = 0; key < kMaxReadLength; ++key) {
        for (std::size_t c = 0; c < chunks_; ++c) {
          if (!(stages_[c].*role)[key].empty()) {
            set->open_writer(static_cast<unsigned>(key));
            targets_.push_back({set, role, static_cast<unsigned>(key)});
            break;
          }
        }
      }
    }
    if (targets_.empty()) return;
    // Writes on pool threads answer to the same node-scoped fault rules as
    // the caller's own.
    const int node = io::FaultInjector::current_node();
    util::ThreadPool::global().parallel_for_chunked(
        targets_.size(),
        [&](std::size_t begin, std::size_t end) {
          io::FaultInjector::ScopedNode scope(node);
          for (std::size_t t = begin; t < end; ++t) {
            const DrainTarget& target = targets_[t];
            for (std::size_t c = 0; c < chunks_; ++c) {
              const auto& records = (stages_[c].*target.role)[target.key];
              if (!records.empty()) {
                target.set->append(target.key,
                                   std::span<const FpRecord>(records));
              }
            }
          }
        },
        std::max<std::size_t>(1, targets_.size() * util::kElementGrain /
                                     std::max<std::uint64_t>(tuples_, 1)));
  }

 private:
  /// Flat indexed-by-partition-key staging for one strand chunk (replaces
  /// the old std::map<unsigned, std::vector<FpRecord>>: partition keys are
  /// overlap lengths, dense in [0, kMaxReadLength), so direct indexing beats
  /// the tree on every lookup of the hot emission loop). Vectors keep their
  /// capacity across batches.
  struct ChunkStage {
    std::vector<std::vector<FpRecord>> sfx;
    std::vector<std::vector<FpRecord>> pfx;
    std::uint64_t tuples = 0;
    std::uint64_t bases = 0;
    unsigned max_length = 0;

    void reset(std::size_t key_limit) {
      sfx.resize(key_limit);
      pfx.resize(key_limit);
      for (auto& v : sfx) v.clear();
      for (auto& v : pfx) v.clear();
      tuples = 0;
      bases = 0;
      max_length = 0;
    }
  };

  void stage_chunk(const EmissionJob& job, std::size_t begin, std::size_t end,
                   ChunkStage& stage) {
    for (std::size_t s = begin; s < end; ++s) {
      const unsigned len = job.lengths[s];
      const std::uint32_t read_id = job.read_ids[s / 2];
      const std::uint32_t vertex =
          (read_id << 1) | static_cast<std::uint32_t>(s & 1);
      const gpu::Key128* prefix_row =
          job.fps.prefix.data() + s * job.fps.stride;
      const gpu::Key128* suffix_row =
          job.fps.suffix.data() + s * job.fps.stride;

      // Keep overlap lengths l in [l_min, len): the l = len partition is
      // dropped to avoid self-loops (paper III-A).
      for (unsigned l = options_.min_overlap; l < len; ++l) {
        const gpu::Key128 pfp = prefix_row[l - 1];
        const gpu::Key128 sfp = suffix_row[len - l];
        stage.pfx[l].push_back(FpRecord{pfp, vertex, 0});
        stage.sfx[l].push_back(FpRecord{sfp, vertex, 0});
        stage.tuples += 2;
      }
      stage.max_length = std::max(stage.max_length, len);
      stage.bases += len;
      if ((s & 1) == 0) {
        // Chunks cover disjoint strand ranges, so each read's slot is
        // written by exactly one chunk.
        result_.read_lengths[read_id] = static_cast<std::uint16_t>(len);
      }
    }
  }

  /// One non-empty partition of the batch: its set, which of the stages'
  /// two arrays holds its records, and its key.
  struct DrainTarget {
    io::PartitionSet<FpRecord>* set;
    std::vector<std::vector<FpRecord>> ChunkStage::*role;
    unsigned key;
  };

  MapResult& result_;
  const MapOptions& options_;
  std::vector<ChunkStage> stages_;
  std::size_t chunks_ = 0;    ///< chunks of the staged batch
  std::uint64_t tuples_ = 0;  ///< tuples of the staged batch
  std::vector<DrainTarget> targets_;
};

/// Background drain stage of the streamed map pipeline: the emitter's
/// staged batch is appended to the partition files while the main thread
/// fingerprints the next batch. One drain runs at a time, so partition
/// appends happen in batch order — identical to the synchronous path.
/// Failures surface on the next wait() or finish().
class DrainWorker {
 public:
  explicit DrainWorker(TupleEmitter& emitter)
      : emitter_(emitter),
        node_(io::FaultInjector::current_node()),
        worker_([this] { run(); }) {}

  ~DrainWorker() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

  DrainWorker(const DrainWorker&) = delete;
  DrainWorker& operator=(const DrainWorker&) = delete;

  /// Block until the drain in flight (if any) has finished, so the emitter
  /// may stage the next batch; rethrows its failure.
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !pending_ || error_ != nullptr; });
    if (error_ != nullptr) std::rethrow_exception(error_);
  }

  /// Start draining the emitter's staged batch (after wait()).
  void start() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_ = true;
    }
    cv_.notify_all();
  }

  /// Wait for the last drain and stop the worker; rethrows failures.
  void finish() {
    wait();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

 private:
  void run() {
    // Partition writes answer to the submitting node's fault rules.
    io::FaultInjector::ScopedNode scope(node_);
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      cv_.wait(lock, [this] { return pending_ || stop_; });
      if (!pending_) return;  // stop requested, nothing to drain
      lock.unlock();
      std::exception_ptr error;
      try {
        emitter_.drain();
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      pending_ = false;
      error_ = error;
      cv_.notify_all();
      if (error_ != nullptr) return;
    }
  }

  TupleEmitter& emitter_;
  const int node_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool pending_ = false;  ///< a staged batch awaits or is in its drain
  bool stop_ = false;
  std::exception_ptr error_;
  std::thread worker_;
};

}  // namespace

MapResult run_map_phase(Workspace& ws,
                        const std::vector<std::filesystem::path>& fastqs,
                        const MapOptions& options) {
  MapResult result;
  result.suffixes = std::make_unique<io::PartitionSet<FpRecord>>(
      ws.dir / "map", "sfx", *ws.io);
  result.prefixes = std::make_unique<io::PartitionSet<FpRecord>>(
      ws.dir / "map", "pfx", *ws.io);

  const fingerprint::PlaceTable places(options.fingerprints, kMaxReadLength);
  const std::uint64_t batch_bases = batch_bases_for(*ws.device);
  TupleEmitter emitter(result, options);
  gpu::StreamPair streams(*ws.device, options.streamed);

  std::vector<std::string> strands;
  seq::ReadBatch batch;

  auto fingerprint_batch = [&](EmissionJob& job) {
    obs::WallSpan span;
    if (obs::Tracer* tracer = obs::Tracer::active()) {
      span = obs::WallSpan(
          *tracer, tracer->track("core.map"),
          "batch:" + std::to_string(job.read_ids.front()),
          {{"strands", static_cast<std::int64_t>(job.lengths.size())}});
    }
    util::TrackedAllocation strand_mem(
        *ws.host, strands.size() * (strands.front().size() + 32));
    fingerprint::compute_batch_fingerprints(
        *ws.device, strands, places, options.strategy,
        options.streamed ? &streams : nullptr, job.fps);
  };
  // Batches outside [first_read, first_read + max_reads) are skipped; the
  // first batch past the range ends the stream.
  auto past_range = [&] {
    return options.max_reads != UINT64_MAX &&
           batch.first_id >= options.first_read + options.max_reads;
  };
  auto before_range = [&] {
    return batch.first_id + batch.size() <= options.first_read;
  };

  // One job for the whole run: its arrays keep their storage from batch to
  // batch.
  EmissionJob job;
  if (options.streamed) {
    // Three-stage software pipeline: the background stream decodes batch
    // i+1 while the device fingerprints batch i (double-buffered across the
    // stream pair) and the drain worker appends batch i-1's staged tuples
    // to the partition files — so at steady state disk input, device
    // compute and partition output all overlap (paper Fig 8 across the map
    // phase). Staging copies a batch's tuples out of its fingerprints, so
    // one fingerprint buffer serves every batch.
    seq::AsyncReadBatchStream stream(fastqs, batch_bases);
    DrainWorker worker(emitter);
    while (stream.next(batch)) {
      if (before_range()) continue;
      if (past_range()) break;
      if (!prepare_batch(batch, options, strands, job)) continue;
      fingerprint_batch(job);
      util::TrackedAllocation fp_mem(
          *ws.host, (job.fps.prefix.size() + job.fps.suffix.size()) *
                        sizeof(gpu::Key128));
      worker.wait();
      emitter.stage(job);
      worker.start();
    }
    worker.finish();
  } else {
    seq::ReadBatchStream stream(fastqs, batch_bases);
    while (stream.next(batch)) {
      if (before_range()) continue;
      if (past_range()) break;
      if (!prepare_batch(batch, options, strands, job)) continue;
      fingerprint_batch(job);
      util::TrackedAllocation fp_mem(
          *ws.host, (job.fps.prefix.size() + job.fps.suffix.size()) *
                        sizeof(gpu::Key128));
      emitter.emit(job);
    }
  }

  // total_bases counted both strands; report input bases (one strand).
  result.total_bases /= 2;
  // Host emission stage: every tuple is staged once and appended once.
  result.host_bytes = result.tuples_emitted * sizeof(FpRecord);
  result.suffixes->finalize();
  result.prefixes->finalize();
  LOG_INFO << "map: " << result.read_count << " reads, "
           << result.tuples_emitted << " tuples";
  return result;
}

}  // namespace lasagna::core
