#include "dist/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/map_phase.hpp"
#include "core/reduce_phase.hpp"
#include "core/sort_phase.hpp"
#include "core/spec_resolve.hpp"
#include "dist/active_message.hpp"
#include "dist/codec.hpp"
#include "dist/fnv.hpp"
#include "dist/shuffle_ingest.hpp"
#include "dist/topology.hpp"
#include "graph/string_graph.hpp"
#include "graph/transitive.hpp"
#include "io/fault_injector.hpp"
#include "io/file_stream.hpp"
#include "io/tempdir.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "seq/read_store.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace lasagna::dist {

namespace {

// Active-message types.
constexpr std::uint16_t kGetBlock = 0;    ///< master: next input block
constexpr std::uint16_t kPushChunk = 1;   ///< owner: shuffle tuples, pushed
constexpr std::uint16_t kGatherEdges = 2; ///< node: its edge set
constexpr std::uint16_t kGatherKeys = 3;  ///< node: partition keys it owns
constexpr std::uint16_t kBlockDone = 4;   ///< all: input block fully pushed
constexpr std::uint16_t kSpecProposals = 5;  ///< master: speculative accepts
constexpr std::uint16_t kSpecCommit = 6;     ///< all: reconciled commit delta
constexpr std::uint16_t kGraphEdges = 7;     ///< owner: directed full-graph edges
constexpr std::uint16_t kAdjFetch = 8;       ///< owner: boundary adjacency fetch
constexpr std::uint16_t kUnitigLinks = 9;    ///< owner: surviving edges for
                                             ///< in-degree accumulation
constexpr std::uint16_t kGatherUnitigs = 10; ///< master: stitched unitig edges

constexpr std::uint64_t kShuffleChunkBytes = 256 << 10;

constexpr std::uint64_t kFnvOffset = fnv::kOffset;

std::uint64_t fnv_bytes(std::uint64_t h, const std::byte* data,
                        std::size_t n) {
  return fnv::fold_bytes(h, data, n);
}

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  return fnv::fold_u64(h, v);
}

/// Combine the two per-role content chains of one key into the value
/// stored in NodeContext::merged_hash. Per-role chains (each seeded
/// fnv::kOffset) are what the fused ingest can compute online — suffix and
/// prefix bytes interleave on the wire — so the staged path folds the same
/// way and the two stay comparable.
std::uint64_t combine_role_hashes(std::uint64_t h_sfx, std::uint64_t h_pfx) {
  return fnv_u64(fnv_u64(kFnvOffset, h_sfx), h_pfx);
}

/// The link model actually used: explicit topology fields win, zero fields
/// inherit the legacy flat scalars and the machine's NIC cap.
ClusterTopology effective_topology(const ClusterConfig& config) {
  ClusterTopology t = config.topology;
  if (t.link_bandwidth_bytes_per_sec <= 0.0) {
    t.link_bandwidth_bytes_per_sec = config.network_bandwidth_bytes_per_sec;
  }
  if (t.latency_seconds <= 0.0) {
    t.latency_seconds = config.network_latency_seconds;
  }
  if (t.nic_bandwidth_bytes_per_sec <= 0.0) {
    t.nic_bandwidth_bytes_per_sec =
        config.machine.nic_bandwidth_bytes_per_sec;
  }
  return t;
}

/// Modeled seconds for one `bytes`-sized transfer between two nodes
/// (request + acknowledgement latency, payload over the path's effective
/// bandwidth).
double transfer_seconds(const ClusterTopology& topo, unsigned from,
                        unsigned to, std::uint64_t bytes) {
  double s = 2 * topo.effective_latency(from, to);
  const double bw = topo.effective_bandwidth(from, to);
  if (std::isfinite(bw) && bw > 0.0) {
    s += static_cast<double>(bytes) / bw;
  }
  return s;
}

/// Parameters that shape per-node intermediate files and work division;
/// resuming across a change in any of these would splice incompatible
/// state. `streamed` is deliberately absent — both paths produce identical
/// bytes, so a sync run may resume a streamed one and vice versa.
std::uint64_t hash_cluster_config(const ClusterConfig& config) {
  std::uint64_t h = kFnvOffset;
  h = fnv_u64(h, config.node_count);
  // Only the BSP strategy changes the intermediate-file layout (map
  // splits partitions by fingerprint bucket); token and speculative runs
  // share identical per-node files — and identical outputs — so their
  // checkpoints interchange, like streamed/sync.
  h = fnv_u64(h,
              config.reduce_strategy == ReduceStrategy::kFingerprintBsp ? 1
                                                                        : 0);
  h = fnv_u64(h, config.min_overlap);
  h = fnv_u64(h, config.machine.host_memory_bytes);
  h = fnv_u64(h, config.machine.device_memory_bytes);
  h = fnv_u64(h, config.include_singletons ? 1 : 0);
  // The graph mode changes both the contigs and the reduce-phase sidecar
  // layout (candidate lists vs. edge deltas), so greedy and reduced
  // checkpoints must not interchange — mirrors hash_assembly_config.
  h = fnv_u64(h, config.graph == core::GraphMode::kReduced ? 1 : 0);
  return h;
}

// ---- checkpoint keys (zero-padded: lexicographic == numeric order) -------

std::string block_key(std::uint64_t block) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "map:block:%05llu",
                static_cast<unsigned long long>(block));
  return buf;
}

std::string shuffle_ck_key(unsigned key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shuffle:key:%08u", key);
  return buf;
}

std::string reduce_ck_key(unsigned key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "reduce:l%08u", key);
  return buf;
}

std::string reduce_sidecar_name(unsigned key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "reduce.l%08u", key);
  return buf;
}

// Speculative-reduce checkpoint names. Candidate sidecars are per-node
// (each owner checkpoints its scanned partitions); the committed set lives
// on node 0, rewritten atomically after every reconciliation round.
std::string spec_cand_key(unsigned key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "reduce:cand:l%08u", key);
  return buf;
}

std::string spec_cand_sidecar_name(unsigned key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "spec.cand.l%08u", key);
  return buf;
}

/// Fault-hook label for a reconciliation round boundary (node 0). Not a
/// manifest key — it exists so "node:...,match=reduce:spec:round" policies
/// can kill the master between supersteps.
std::string spec_round_key(unsigned round) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "reduce:spec:round:%04u", round);
  return buf;
}

constexpr const char* kSpecCommittedKey = "reduce:spec:committed";
constexpr const char* kSpecCommittedSidecar = "spec.committed";

// Reduced-graph-mode checkpoint names: one candidate-edge sidecar per
// scanned partition (restore skips the partition's disk reads and device
// kernels; everything downstream — exchange, reduction, stitch — is a pure
// function of the candidates and recomputes). The "reduce:" prefix keeps
// existing fault-policy match specs applicable.
std::string full_cand_key(unsigned key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "reduce:fullcand:l%08u", key);
  return buf;
}

std::string full_cand_sidecar_name(unsigned key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "full.cand.l%08u", key);
  return buf;
}

/// One simulated compute node: private device, disk counters and storage.
struct NodeContext {
  unsigned id = 0;
  std::unique_ptr<gpu::Device> device;
  util::MemoryTracker host{"node-host"};
  io::IoStats io;          ///< map/sort/reduce disk traffic
  io::IoStats shuffle_io;  ///< stage pushes + partition assembly
  std::filesystem::path dir;
  core::Workspace ws;
  std::unique_ptr<core::CheckpointManager> checkpoint;

  /// Serializes fused-ingest block sorts against this node's own map
  /// kernels on the shared capacity-limited device.
  std::mutex device_mutex;
  std::unique_ptr<ShuffleIngest> ingest;  ///< live during a fused map
  std::map<unsigned, ShuffleIngest::KeyResult> fused;

  // Shuffle output: merged raw partitions this node owns, plus their
  // content hashes (for DistributedResult::shuffle_hash).
  std::map<unsigned, std::filesystem::path> owned_sfx;
  std::map<unsigned, std::filesystem::path> owned_pfx;
  std::map<unsigned, std::uint64_t> merged_hash;
  std::uint64_t shuffle_logical = 0;  ///< logical tuple bytes owned
  // Sort output.
  std::vector<core::SortedPartition> sorted;
  // Reduce output: this node's disjoint edge set (token strategy).
  std::unique_ptr<graph::StringGraph> graph;

  std::uint64_t host_bytes = 0;  ///< host-lane bytes this phase
  /// Codec host bytes this phase (encode at mappers, decode at owners);
  /// atomic because AM handlers charge the destination from the caller's
  /// thread.
  std::atomic<std::uint64_t> codec_bytes{0};
  bool did_work = false;         ///< ran anything not covered by checkpoints

  std::uint64_t dir_high_water = 0;  ///< peak bytes under `dir`

  // Snapshots for per-phase deltas.
  io::IoStats::Snapshot io_mark;
  io::IoStats::Snapshot shuffle_mark;
  double device_mark = 0.0;

  void mark() {
    io_mark = io.snapshot();
    shuffle_mark = shuffle_io.snapshot();
    device_mark = device->modeled_seconds();
    host_bytes = 0;
    codec_bytes.store(0, std::memory_order_relaxed);
    did_work = false;
  }

  /// Sample the on-disk footprint of this node's directory into the
  /// high-water mark (workspace peak accounting; called at phase
  /// boundaries and at per-key shuffle/sort steps).
  void sample_dir() {
    std::uint64_t total = 0;
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file(ec)) {
        const std::uintmax_t n = it->file_size(ec);
        if (!ec) total += n;
      }
      ec.clear();
    }
    dir_high_water = std::max(dir_high_water, total);
  }
};

/// Run `body(node)` for every node on its own thread and wait (a phase
/// barrier). Node bodies use the global pool for device kernels, which is
/// safe because these threads are not pool workers.
void for_each_node(std::vector<NodeContext>& nodes,
                   const std::function<void(NodeContext&)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(nodes.size());
  std::mutex error_mutex;
  std::exception_ptr first_error;
  for (auto& node : nodes) {
    threads.emplace_back([&body, &node, &error_mutex, &first_error] {
      try {
        body(node);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

unsigned owner_of(unsigned key, unsigned node_count) {
  return key % node_count;
}

/// Header of one pushed shuffle chunk. The chunk's tuple bytes follow.
struct PushHeader {
  std::uint8_t role = 0;  // 0 = sfx, 1 = pfx
  std::uint8_t pad[3] = {};
  std::uint32_t key = 0;
  std::uint32_t block = 0;   // global input-block id
  std::uint64_t offset = 0;  // byte offset within the (key, block) stage
};

// ---- phase accounting ----------------------------------------------------

/// Global-registry marks taken at a phase start; `finish` fills the
/// fault/metric deltas of a PhaseStats the way core::PhaseScope does.
struct MetricsMark {
  obs::MetricsRegistry::Snapshot counters;
  std::int64_t injected = 0;
  std::int64_t retried = 0;
  std::int64_t fatal = 0;

  static MetricsMark take() {
    auto& r = obs::MetricsRegistry::global();
    MetricsMark m;
    m.counters = r.counters_snapshot();
    m.injected = r.value("io.faults_injected");
    m.retried = r.value("io.faults_retried");
    m.fatal = r.value("io.faults_fatal");
    return m;
  }

  void finish(util::PhaseStats& phase) const {
    auto& r = obs::MetricsRegistry::global();
    phase.faults_injected =
        static_cast<std::uint64_t>(r.value("io.faults_injected") - injected);
    phase.faults_retried =
        static_cast<std::uint64_t>(r.value("io.faults_retried") - retried);
    phase.faults_fatal =
        static_cast<std::uint64_t>(r.value("io.faults_fatal") - fatal);
    phase.metrics = obs::snapshot_delta(counters, r.counters_snapshot());
  }
};

std::int64_t to_ps(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e12));
}

/// Name of the dominant lane among a node's device/disk/host costs — the
/// lane a critical-path slice bound by that node's scan gets attributed to.
const char* dominant_lane(double device, double disk, double host) {
  if (device >= disk && device >= host) return "device";
  return disk >= host ? "disk" : "host";
}

/// Emit the phase's modeled spans: one cluster-level span plus per-node
/// lane spans ("dist.node<k>.{device,disk,host,network}"). Streamed phases
/// run all lanes from the phase start; synchronous phases chain them — the
/// trace shows what the overlap model summarizes.
void trace_cluster_phase(double base_seconds, const util::PhaseStats& phase,
                         const std::vector<NodePhaseBreakdown>& nodes,
                         bool streamed) {
  obs::Tracer* tracer = obs::Tracer::active();
  obs::Profiler* prof = obs::Profiler::active();
  if (tracer == nullptr && prof == nullptr) return;
  const std::int64_t base = to_ps(base_seconds);
  if (tracer != nullptr) {
    tracer->add_span(tracer->track("dist.cluster"), phase.name, -1, 0, base,
                     to_ps(phase.modeled_seconds),
                     {{"resumed", phase.resumed ? 1 : 0},
                      {"nodes", static_cast<std::int64_t>(nodes.size())}});
  }
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const NodePhaseBreakdown& b = nodes[k];
    const std::pair<const char*, double> lanes[] = {
        {"device", b.device_seconds},
        {"disk", b.disk_seconds},
        {"host", b.host_seconds},
        {"network", b.network_seconds}};
    std::int64_t cursor = base;
    for (const auto& [lane, seconds] : lanes) {
      if (seconds <= 0.0) continue;
      if (tracer != nullptr) {
        tracer->add_span(
            tracer->track("dist.node" + std::to_string(k) + "." + lane),
            phase.name, -1, 0, streamed ? base : cursor, to_ps(seconds));
      }
      // Mirror each lane span as a weighted (non-chain) node of the
      // causal graph — context the merged trace renders per node.
      if (prof != nullptr) {
        prof->span(static_cast<int>(k), lane, "lane",
                   streamed ? base : cursor, to_ps(seconds));
      }
      if (!streamed) cursor += to_ps(seconds);
    }
  }
  // The phase's accounting appended its chain segments before calling
  // here; the modeled total is final, so the phase can close.
  if (prof != nullptr) prof->end_phase(to_ps(phase.modeled_seconds));
}

// ---- reduce delta sidecars ----------------------------------------------

template <typename T>
void write_pod(io::WriteOnlyStream& out, const T& value) {
  out.write_bytes(std::as_bytes(std::span<const T>(&value, 1)));
}

template <typename T>
bool read_pod(io::ReadOnlyStream& in, T& value) {
  return in.read_bytes(std::as_writable_bytes(std::span<T>(&value, 1))) ==
         sizeof(T);
}

/// Write one partition's reduce delta: the token AFTER the partition and
/// only the edges that partition added. Deltas compose in manifest order,
/// so an orphan sidecar (crash between sidecar write and manifest record)
/// is simply ignored and its partition cleanly re-processed.
void write_reduce_sidecar(NodeContext& node, unsigned key,
                          const util::AtomicBitVector& token,
                          std::span<const graph::Edge> edges) {
  const std::filesystem::path path =
      node.checkpoint->sidecar(reduce_sidecar_name(key));
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    io::WriteOnlyStream out(tmp, node.io);
    const std::vector<std::uint64_t> words = token.to_words();
    write_pod(out, static_cast<std::uint64_t>(token.size()));
    write_pod(out, static_cast<std::uint64_t>(words.size()));
    out.write_bytes(std::as_bytes(std::span<const std::uint64_t>(words)));
    write_pod(out, static_cast<std::uint64_t>(edges.size()));
    out.write_bytes(std::as_bytes(edges));
    out.close();
  }
  std::filesystem::rename(tmp, path);
}

struct ReduceDelta {
  util::AtomicBitVector token;
  std::vector<graph::Edge> edges;
};

std::optional<ReduceDelta> read_reduce_sidecar(NodeContext& node,
                                               unsigned key,
                                               std::uint32_t read_count) {
  const std::filesystem::path path =
      node.checkpoint->sidecar(reduce_sidecar_name(key));
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  try {
    io::ReadOnlyStream in(path, node.io);
    std::uint64_t bits = 0;
    std::uint64_t word_count = 0;
    if (!read_pod(in, bits) || !read_pod(in, word_count)) {
      return std::nullopt;
    }
    if (bits != static_cast<std::uint64_t>(read_count) * 2) {
      return std::nullopt;
    }
    std::vector<std::uint64_t> words(word_count);
    if (in.read_bytes(std::as_writable_bytes(
            std::span<std::uint64_t>(words))) != word_count * 8) {
      return std::nullopt;
    }
    std::uint64_t edge_count = 0;
    if (!read_pod(in, edge_count)) return std::nullopt;
    if (in.remaining() != edge_count * sizeof(graph::Edge)) {
      return std::nullopt;
    }
    std::vector<graph::Edge> edges(edge_count);
    if (in.read_bytes(std::as_writable_bytes(
            std::span<graph::Edge>(edges))) !=
        edge_count * sizeof(graph::Edge)) {
      return std::nullopt;
    }
    ReduceDelta delta;
    delta.token = util::AtomicBitVector::from_words(bits, words);
    delta.edges = std::move(edges);
    return delta;
  } catch (...) {
    return std::nullopt;
  }
}

// ---- speculative-reduce sidecars ----------------------------------------

using SpecProposal = core::SpeculativeResolver::Proposal;

/// One partition's candidate list, ranks included — restoring skips the
/// partition scan entirely (no disk reads, no device kernels).
void write_spec_candidates(NodeContext& node, unsigned key,
                           std::span<const SpecProposal> candidates) {
  const std::filesystem::path path =
      node.checkpoint->sidecar(spec_cand_sidecar_name(key));
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    io::WriteOnlyStream out(tmp, node.io);
    write_pod(out, static_cast<std::uint64_t>(candidates.size()));
    out.write_bytes(std::as_bytes(candidates));
    out.close();
  }
  std::filesystem::rename(tmp, path);
}

std::optional<std::vector<SpecProposal>> read_spec_candidates(
    NodeContext& node, unsigned key) {
  const std::filesystem::path path =
      node.checkpoint->sidecar(spec_cand_sidecar_name(key));
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  try {
    io::ReadOnlyStream in(path, node.io);
    std::uint64_t count = 0;
    if (!read_pod(in, count)) return std::nullopt;
    if (in.remaining() != count * sizeof(SpecProposal)) return std::nullopt;
    std::vector<SpecProposal> candidates(count);
    if (in.read_bytes(std::as_writable_bytes(
            std::span<SpecProposal>(candidates))) !=
        count * sizeof(SpecProposal)) {
      return std::nullopt;
    }
    return candidates;
  } catch (...) {
    return std::nullopt;
  }
}

/// The full committed edge set (primary edges only), rewritten after every
/// reconciliation round. A resumed run pre-commits these — a sound subset
/// of the sequential-greedy edge set — and replays reconciliation over all
/// candidates; restored commits simply die against their own bits, so the
/// fixpoint is unchanged (and reached in one round on a full restore).
void write_spec_committed(NodeContext& node,
                          std::span<const graph::Edge> edges) {
  const std::filesystem::path path =
      node.checkpoint->sidecar(kSpecCommittedSidecar);
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    io::WriteOnlyStream out(tmp, node.io);
    write_pod(out, static_cast<std::uint64_t>(edges.size()));
    out.write_bytes(std::as_bytes(edges));
    out.close();
  }
  std::filesystem::rename(tmp, path);
}

std::optional<std::vector<graph::Edge>> read_spec_committed(
    NodeContext& node) {
  const std::filesystem::path path =
      node.checkpoint->sidecar(kSpecCommittedSidecar);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  try {
    io::ReadOnlyStream in(path, node.io);
    std::uint64_t count = 0;
    if (!read_pod(in, count)) return std::nullopt;
    if (in.remaining() != count * sizeof(graph::Edge)) return std::nullopt;
    std::vector<graph::Edge> edges(count);
    if (in.read_bytes(std::as_writable_bytes(std::span<graph::Edge>(
            edges))) != count * sizeof(graph::Edge)) {
      return std::nullopt;
    }
    return edges;
  } catch (...) {
    return std::nullopt;
  }
}

// ---- reduced-graph-mode sidecars ----------------------------------------

/// One partition's candidate edges (u, v, overlap), in scan order.
void write_full_candidates(NodeContext& node, unsigned key,
                           std::span<const graph::Edge> candidates) {
  const std::filesystem::path path =
      node.checkpoint->sidecar(full_cand_sidecar_name(key));
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    io::WriteOnlyStream out(tmp, node.io);
    write_pod(out, static_cast<std::uint64_t>(candidates.size()));
    out.write_bytes(std::as_bytes(candidates));
    out.close();
  }
  std::filesystem::rename(tmp, path);
}

std::optional<std::vector<graph::Edge>> read_full_candidates(
    NodeContext& node, unsigned key) {
  const std::filesystem::path path =
      node.checkpoint->sidecar(full_cand_sidecar_name(key));
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  try {
    io::ReadOnlyStream in(path, node.io);
    std::uint64_t count = 0;
    if (!read_pod(in, count)) return std::nullopt;
    if (in.remaining() != count * sizeof(graph::Edge)) return std::nullopt;
    std::vector<graph::Edge> edges(count);
    if (in.read_bytes(std::as_writable_bytes(std::span<graph::Edge>(
            edges))) != count * sizeof(graph::Edge)) {
      return std::nullopt;
    }
    return edges;
  } catch (...) {
    return std::nullopt;
  }
}

/// One surviving full-graph edge on its way to the dst's owner: every link
/// bumps the dst's global in-degree; links whose src has out-degree 1 are
/// also unitig candidates.
struct UnitigLink {
  graph::VertexId src = 0;
  graph::VertexId dst = 0;
  std::uint16_t overlap = 0;
  std::uint16_t out_one = 0;  ///< src's post-reduction out-degree == 1
};

}  // namespace

ClusterConfig ClusterConfig::supermic(unsigned nodes, double scale) {
  ClusterConfig config;
  config.node_count = nodes;
  config.machine = core::MachineConfig::supermic_k20(scale);
  config.network_bandwidth_bytes_per_sec = 7e9 / scale;  // 56 Gb/s
  config.graph_insert_seconds = 50e-9 * scale;
  config.graph_probe_seconds = 1e-9 * scale;
  // SuperMIC's fat tree: 16 nodes per leaf switch at full 56 Gb/s, 2:1
  // oversubscribed uplinks between racks, an extra switch hop of latency.
  config.topology.rack_size = 16;
  config.topology.inter_rack_bandwidth_bytes_per_sec = 3.5e9 / scale;
  config.topology.inter_rack_latency_seconds = 1e-5;
  return config;
}

DistributedResult run_distributed(const std::filesystem::path& fastq,
                                  const std::filesystem::path& output_fasta,
                                  const ClusterConfig& config) {
  if (config.node_count == 0) {
    throw std::invalid_argument("run_distributed: zero nodes");
  }
  DistributedResult result;

  std::optional<io::ScopedTempDir> temp;
  std::filesystem::path root = config.work_dir;
  if (root.empty()) {
    temp.emplace("lasagna-cluster");
    root = temp->path();
  } else {
    std::filesystem::create_directories(root);
  }

  const ClusterTopology topo = effective_topology(config);
  Network net(config.node_count, topo);

  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& c_blocks = registry.counter("dist.map.blocks");
  obs::Counter& c_chunks = registry.counter("dist.shuffle.chunks");
  obs::Counter& c_stage_bytes = registry.counter("dist.shuffle.stage_bytes");
  obs::Counter& c_wire_bytes = registry.counter("dist.shuffle.wire_bytes");
  obs::Counter& c_logical_bytes =
      registry.counter("dist.shuffle.logical_bytes");
  obs::Counter& c_keys_merged = registry.counter("dist.shuffle.keys_merged");
  obs::Counter& c_token_hops = registry.counter("dist.token.hops");
  obs::Counter& c_partitions = registry.counter("dist.reduce.partitions");
  obs::Counter& c_spec_rounds = registry.counter("dist.reduce.rounds");
  obs::Counter& c_spec_conflicts = registry.counter("dist.reduce.conflicts");
  obs::Counter& c_spec_proposals = registry.counter("dist.reduce.proposals");
  obs::Counter& c_spec_supersteps =
      registry.counter("dist.reduce.supersteps");
  obs::Counter& c_full_edges = registry.counter("dist.reduce.full_edges");
  obs::Counter& c_removed = registry.counter("dist.reduce.removed_edges");
  obs::Counter& c_halo = registry.counter("dist.reduce.halo_vertices");
  obs::Counter& c_unitig_links =
      registry.counter("dist.reduce.unitig_links");

  const double disk_bw = config.machine.disk_bandwidth_bytes_per_sec;
  const double host_bw = config.machine.host_bandwidth_bytes_per_sec;
  const bool streamed = config.streamed;
  const bool bsp =
      config.reduce_strategy == ReduceStrategy::kFingerprintBsp;
  // Fusion needs the push shuffle overlapped with the map (streamed) and
  // no checkpoint staging to splice re-pushed blocks into (empty
  // work_dir); checkpointed and sync runs take the staged path.
  const bool fused =
      streamed && config.fuse_shuffle && config.work_dir.empty();
  const bool compress = config.compress_wire;

  core::BlockGeometry geometry = core::BlockGeometry::from(config.machine);
  geometry.streamed = config.streamed;

  const std::uint64_t input_fp =
      core::CheckpointManager::fingerprint_inputs({fastq});
  const std::uint64_t config_hash = hash_cluster_config(config);

  std::vector<NodeContext> nodes(config.node_count);
  for (unsigned i = 0; i < config.node_count; ++i) {
    NodeContext& node = nodes[i];
    node.id = i;
    node.device = std::make_unique<gpu::Device>(
        config.machine.gpu_profile, config.machine.device_memory_bytes);
    node.dir = root / ("node" + std::to_string(i));
    std::filesystem::create_directories(node.dir);
    node.ws = core::Workspace{node.device.get(), &node.host, &node.io,
                              node.dir};
    if (!config.work_dir.empty()) {
      node.checkpoint = std::make_unique<core::CheckpointManager>(
          node.dir, input_fp, config_hash);
      if (!(config.resume && node.checkpoint->load())) {
        node.checkpoint->reset();
      }
      node.ws.checkpoint = node.checkpoint.get();
    }
    node.mark();
  }

  // Pre-scan the shared input once (master): read count for block
  // assignment and graph sizing. Reduced graph mode additionally collects
  // the global read-length table — the overhang arithmetic of the
  // transitive reduction needs every endpoint's length, including halo
  // vertices owned by other nodes.
  std::vector<std::uint32_t> read_lengths;
  {
    seq::ReadBatchStream stream(fastq, 1 << 20);
    seq::ReadBatch batch;
    while (stream.next(batch)) {
      if (config.graph == core::GraphMode::kReduced) {
        for (const std::string& r : batch.reads) {
          read_lengths.push_back(static_cast<std::uint32_t>(r.size()));
        }
      }
    }
    result.read_count = stream.reads_seen();
  }
  const double fastq_bytes =
      static_cast<double>(std::filesystem::file_size(fastq));

  double cluster_clock = 0.0;  ///< cumulative modeled time (trace base)

  // Per-node map-section lanes, captured at the map/shuffle boundary; the
  // shuffle's overlap model needs them to compute its exposed cost.
  struct MapLanes {
    double dev = 0.0;     ///< device kernels
    double mdisk = 0.0;   ///< map's own partition/scratch disk
    double sdisk1 = 0.0;  ///< stage push disk (reads at mapper + writes
                          ///< at owner)
    double host = 0.0;    ///< tuple emission host lane
    double codec = 0.0;   ///< wire codec host cost (encode + decode)
    double net1 = 0.0;    ///< push traffic network lane
  };
  std::vector<MapLanes> map_lanes(config.node_count);
  const std::int64_t wire_mark = c_wire_bytes.value();
  const std::int64_t logical_mark = c_logical_bytes.value();

  // ---- map (with overlapped push shuffle) ----------------------------------
  // The master hands out input blocks on request; each node fingerprints
  // its blocks and pushes the resulting per-key tuples to their owners in
  // chunked active messages as each block completes — the shuffle's data
  // motion rides inside the map phase instead of a later barrier.
  std::uint64_t num_blocks = 0;
  std::uint64_t fresh_blocks = 0;
  {
    if (obs::Profiler* prof = obs::Profiler::active()) {
      prof->begin_phase("map", to_ps(cluster_clock));
    }
    const std::uint64_t block_reads =
        config.node_count == 1
            ? std::max<std::uint64_t>(1, result.read_count)
            : std::max<std::uint64_t>(
                  1, (result.read_count + config.node_count * 2 - 1) /
                         (config.node_count * 2));
    num_blocks = (result.read_count + block_reads - 1) / block_reads;

    // Blocks whose map + push already completed in a previous (crashed)
    // run, according to any node's manifest; the dispenser skips them and
    // effectively rebalances the unfinished blocks across live nodes.
    std::set<std::uint64_t> done_blocks;
    for (auto& node : nodes) {
      if (node.checkpoint == nullptr) break;
      for (const std::string& key :
           node.checkpoint->keys_with_prefix("map:block:")) {
        done_blocks.insert(std::stoull(key.substr(10)));
      }
    }

    struct Dispenser {
      std::mutex mutex;
      std::uint64_t next = 0;
      std::vector<std::uint64_t> per_node;  ///< static round-robin cursors
    };
    Dispenser dispenser;
    if (config.static_map_blocks) {
      dispenser.per_node.resize(config.node_count);
      for (unsigned k = 0; k < config.node_count; ++k) {
        dispenser.per_node[k] = k;
      }
    }
    net.register_handler(
        0, kGetBlock,
        [&dispenser, &done_blocks, num_blocks, block_reads,
         stride = config.node_count,
         total = result.read_count](unsigned src, std::span<const std::byte>) {
          Payload reply;
          std::lock_guard<std::mutex> lock(dispenser.mutex);
          std::uint64_t g = 0;
          if (!dispenser.per_node.empty()) {
            // Static round-robin: mapper `src` owns blocks src, src+N, ...
            // (minus checkpointed ones) regardless of request order.
            std::uint64_t& next = dispenser.per_node[src];
            while (next < num_blocks && done_blocks.count(next) > 0) {
              next += stride;
            }
            if (next >= num_blocks) return reply;  // no more work
            g = next;
            next += stride;
          } else {
            while (dispenser.next < num_blocks &&
                   done_blocks.count(dispenser.next) > 0) {
              ++dispenser.next;
            }
            if (dispenser.next >= num_blocks) return reply;  // no more work
            g = dispenser.next++;
          }
          put(reply, g);
          put(reply, g * block_reads);
          put(reply, std::min<std::uint64_t>(block_reads,
                                             total - g * block_reads));
          return reply;
        });

    // Owners consume pushed chunks: fused runs feed them straight into
    // sort-run formation (ShuffleIngest); staged runs persist them into
    // per-(role, key, block) stage files. offset 0 truncates, so a
    // re-pushed block (crash recovery) is idempotent even when a
    // different node re-maps it.
    for (auto& node : nodes) {
      const std::filesystem::path stage_dir = node.dir / "shuffle";
      std::filesystem::create_directories(stage_dir);
      if (fused) {
        // Ingest disk traffic (run writes) belongs to the shuffle lane;
        // its block sorts share the owner's device with map kernels.
        core::Workspace ingest_ws = node.ws;
        ingest_ws.io = &node.shuffle_io;
        ingest_ws.checkpoint = nullptr;
        node.ingest = std::make_unique<ShuffleIngest>(
            ingest_ws, geometry, node.dir / "sorted", &node.device_mutex);
      }
      net.register_handler(
          node.id, kPushChunk,
          [&node, stage_dir,
           fused](unsigned src, std::span<const std::byte> payload) {
            std::size_t off = 0;
            const auto hdr = get<PushHeader>(payload, off);
            std::vector<std::byte> logical =
                codec::decode_chunk(payload.subspan(off));
            if (src != node.id &&
                codec::method(payload.subspan(off)) != codec::Method::kRaw) {
              node.codec_bytes.fetch_add(logical.size(),
                                         std::memory_order_relaxed);
            }
            if (fused) {
              node.ingest->deliver(hdr.role, hdr.key, hdr.block,
                                   std::move(logical));
              return Payload{};
            }
            char name[64];
            std::snprintf(name, sizeof(name), "stage_%s_%05u_%06u",
                          hdr.role == 0 ? "sfx" : "pfx", hdr.key,
                          hdr.block);
            const std::filesystem::path path = stage_dir / name;
            std::FILE* f =
                std::fopen(path.c_str(), hdr.offset == 0 ? "wb" : "ab");
            if (f == nullptr) {
              throw std::runtime_error("shuffle stage open failed: " +
                                       path.string());
            }
            const std::size_t n = logical.size();
            if (n > 0 &&
                std::fwrite(logical.data(), 1, n, f) != n) {
              std::fclose(f);
              throw std::runtime_error("shuffle stage write failed: " +
                                       path.string());
            }
            std::fclose(f);
            if (n > 0) node.shuffle_io.add_write(n);
            return Payload{};
          });
      if (fused) {
        net.register_handler(
            node.id, kBlockDone,
            [&node](unsigned, std::span<const std::byte> payload) {
              std::size_t off = 0;
              node.ingest->block_done(get<std::uint32_t>(payload, off));
              return Payload{};
            });
      }
    }

    const auto push_partition_file =
        [&](NodeContext& node, std::uint8_t role, unsigned key,
            std::uint64_t block, const std::filesystem::path& file) {
          const unsigned owner = owner_of(key, config.node_count);
          io::ReadOnlyStream in(file, node.shuffle_io);
          std::vector<std::byte> buffer(kShuffleChunkBytes);
          std::uint64_t offset = 0;
          for (;;) {
            const std::size_t n = in.read_bytes(buffer);
            if (n == 0 && offset > 0) break;
            PushHeader hdr;
            hdr.role = role;
            hdr.key = key;
            hdr.block = static_cast<std::uint32_t>(block);
            hdr.offset = offset;
            const std::span<const std::byte> chunk(buffer.data(), n);
            const std::size_t phase =
                static_cast<std::size_t>(offset % sizeof(core::FpRecord));
            // Self-pushes never hit the wire; only remote chunks pay the
            // encode cost and earn the compression.
            const std::vector<std::byte> body =
                (owner != node.id && compress)
                    ? codec::encode_chunk(chunk, phase)
                    : codec::encode_raw(chunk);
            Payload payload;
            payload.reserve(sizeof(hdr) + body.size());
            put(payload, hdr);
            payload.insert(payload.end(), body.begin(), body.end());
            (void)net.request(node.id, owner, kPushChunk, payload);
            c_chunks.add(1);
            c_stage_bytes.add(static_cast<std::int64_t>(n));
            if (owner != node.id) {
              if (compress) {
                node.codec_bytes.fetch_add(n, std::memory_order_relaxed);
              }
              c_logical_bytes.add(static_cast<std::int64_t>(n));
              // Uncompressed chunks report their logical size: the codec
              // tag is framing, not traffic, and keeping raw runs at
              // ratio exactly 1.0 makes the counter self-describing.
              c_wire_bytes.add(static_cast<std::int64_t>(
                  compress ? body.size() : n));
            }
            offset += n;
            if (n < buffer.size()) break;
          }
        };

    util::WallTimer wall;
    const MetricsMark marks = MetricsMark::take();
    std::atomic<std::uint64_t> fresh{0};
    for_each_node(nodes, [&](NodeContext& node) {
      io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
      for (;;) {
        const Payload reply = net.request(node.id, 0, kGetBlock, {});
        if (reply.empty()) break;
        std::size_t off = 0;
        const auto g = get<std::uint64_t>(reply, off);
        const auto first = get<std::uint64_t>(reply, off);
        const auto count = get<std::uint64_t>(reply, off);

        if (io::FaultInjector* injector = io::FaultInjector::active()) {
          injector->on_node_op(node.id, block_key(g));
        }

        core::MapOptions options;
        options.min_overlap = config.min_overlap;
        options.fingerprints = config.fingerprints;
        options.first_read = first;
        options.max_reads = count;
        options.streamed = config.streamed;
        // Fingerprint-BSP mode: one bucket per node, so partition key
        // modulo node count IS the owning node and every node gets a
        // slice of every length.
        options.fingerprint_buckets = bsp ? config.node_count : 1;
        core::Workspace block_ws = node.ws;
        block_ws.dir = node.dir / ("block" + std::to_string(g));
        block_ws.checkpoint = nullptr;

        std::uint64_t tuples = 0;
        {
          const core::MapResult mapped = [&] {
            // Fused runs share each owner's device between map kernels
            // and ingest block sorts; hold our own device for the kernel
            // burst so a concurrent ingest sort cannot overcommit it.
            std::unique_lock<std::mutex> lock(node.device_mutex,
                                              std::defer_lock);
            if (fused) lock.lock();
            return core::run_map_phase(block_ws, fastq, options);
          }();
          node.host_bytes += mapped.host_bytes;
          tuples = mapped.tuples_emitted;
          for (const unsigned key : mapped.suffixes->lengths()) {
            push_partition_file(node, 0, key, g,
                                mapped.suffixes->path(key));
          }
          for (const unsigned key : mapped.prefixes->lengths()) {
            push_partition_file(node, 1, key, g,
                                mapped.prefixes->path(key));
          }
          if (fused) {
            // Every chunk of block g is delivered (synchronous AMs);
            // tell all owners so their ingest frontiers can advance.
            Payload done;
            put(done, static_cast<std::uint32_t>(g));
            for (unsigned i = 0; i < config.node_count; ++i) {
              (void)net.request(node.id, i, kBlockDone, done);
            }
          }
        }
        std::error_code ec;
        std::filesystem::remove_all(block_ws.dir, ec);
        if (node.checkpoint != nullptr) {
          node.checkpoint->record(
              block_key(g),
              {{"first", first}, {"reads", count}, {"tuples", tuples}});
        }
        node.did_work = true;
        c_blocks.add(1);
        fresh.fetch_add(1, std::memory_order_relaxed);
      }
    });
    fresh_blocks = fresh.load();

    if (fused) {
      // Map barrier fell: every chunk and completion marker is delivered.
      // Drain the ingest workers — their run writes and block sorts count
      // as map-section lane time, where they actually overlapped.
      for_each_node(nodes, [](NodeContext& node) {
        node.fused = node.ingest->finish();
        node.ingest.reset();
      });
    }

    // Capture section-1 lanes before resetting marks; the shuffle phase
    // needs them to price its overlapped data motion.
    util::PhaseStats phase;
    phase.name = "map";
    phase.wall_seconds = wall.seconds();
    double modeled_max = 0.0;
    double dev_max = 0.0, disk_max = 0.0, host_max = 0.0;
    unsigned modeled_arg = 0;  ///< node whose lanes bound the phase
    std::vector<NodePhaseBreakdown> breakdown(config.node_count);
    for (auto& node : nodes) {
      const auto io_now = node.io.snapshot();
      const auto sh_now = node.shuffle_io.snapshot();
      MapLanes& lanes = map_lanes[node.id];
      lanes.dev = (node.device->modeled_seconds() - node.device_mark) *
                  config.machine.time_scale;
      lanes.mdisk =
          static_cast<double>(io_now.bytes_read - node.io_mark.bytes_read +
                              io_now.bytes_written -
                              node.io_mark.bytes_written) /
          disk_bw;
      lanes.sdisk1 = static_cast<double>(
                         sh_now.bytes_read - node.shuffle_mark.bytes_read +
                         sh_now.bytes_written -
                         node.shuffle_mark.bytes_written) /
                     disk_bw;
      lanes.host = static_cast<double>(node.host_bytes) / host_bw;
      lanes.codec =
          static_cast<double>(
              node.codec_bytes.load(std::memory_order_relaxed)) /
          host_bw;
      lanes.net1 = net.modeled_seconds(node.id);

      const double node_modeled =
          streamed ? std::max({lanes.dev, lanes.mdisk, lanes.host})
                   : lanes.dev + lanes.mdisk + lanes.host;
      if (node_modeled > modeled_max) modeled_arg = node.id;
      modeled_max = std::max(modeled_max, node_modeled);
      dev_max = std::max(dev_max, lanes.dev);
      disk_max = std::max(disk_max, lanes.mdisk);
      host_max = std::max(host_max, lanes.host);

      phase.disk_bytes_read += io_now.bytes_read - node.io_mark.bytes_read;
      phase.disk_bytes_written +=
          io_now.bytes_written - node.io_mark.bytes_written;
      phase.peak_host_bytes =
          std::max(phase.peak_host_bytes, node.host.peak());
      phase.peak_device_bytes =
          std::max(phase.peak_device_bytes, node.device->memory().peak());

      NodePhaseBreakdown& b = breakdown[node.id];
      b.disk_seconds = lanes.mdisk;
      b.device_seconds = lanes.dev;
      b.host_seconds = lanes.host;
    }
    net.reset_counters();

    // Reading the shared input is part of the map cost; a resumed run only
    // pays for the blocks it actually re-mapped.
    const double input_factor =
        num_blocks == 0 ? 0.0
                        : static_cast<double>(fresh_blocks) /
                              static_cast<double>(num_blocks);
    const double input_bytes = fastq_bytes * 2.0 * input_factor;
    phase.disk_bytes_read += static_cast<std::uint64_t>(input_bytes);
    phase.device_seconds = dev_max;
    phase.host_seconds = host_max;
    phase.disk_seconds =
        disk_max + input_bytes / config.node_count / disk_bw;
    phase.modeled_seconds =
        modeled_max + input_bytes / config.node_count / disk_bw;
    phase.overlap_efficiency =
        phase.modeled_seconds > 0.0
            ? (phase.device_seconds + phase.disk_seconds +
               phase.host_seconds) /
                  phase.modeled_seconds
            : 1.0;
    phase.resumed = fresh_blocks == 0 && num_blocks > 0;
    if (phase.resumed) ++result.phases_resumed;
    marks.finish(phase);
    if (obs::Profiler* prof = obs::Profiler::active()) {
      // modeled = shared-input read + the binding node's map lanes —
      // record the decomposition as the phase's chain.
      prof->chain(-1, "disk", "input-read",
                  to_ps(input_bytes / config.node_count / disk_bw));
      const MapLanes& ml = map_lanes[modeled_arg];
      const int mn = static_cast<int>(modeled_arg);
      if (streamed) {
        prof->chain(mn, dominant_lane(ml.dev, ml.mdisk, ml.host),
                    "map-scan", to_ps(std::max({ml.dev, ml.mdisk, ml.host})));
      } else {
        prof->chain(mn, "device", "map-scan", to_ps(ml.dev));
        prof->chain(mn, "disk", "map-scan", to_ps(ml.mdisk));
        prof->chain(mn, "host", "map-scan", to_ps(ml.host));
      }
    }
    trace_cluster_phase(cluster_clock, phase, breakdown, streamed);
    cluster_clock += phase.modeled_seconds;
    result.stats.add(std::move(phase));
    result.per_node.push_back(std::move(breakdown));

    result.wire_bytes =
        static_cast<std::uint64_t>(c_wire_bytes.value() - wire_mark);
    const std::uint64_t logical_pushed =
        static_cast<std::uint64_t>(c_logical_bytes.value() - logical_mark);
    result.compression_ratio =
        result.wire_bytes > 0
            ? static_cast<double>(logical_pushed) /
                  static_cast<double>(result.wire_bytes)
            : 1.0;
    registry.gauge("dist.shuffle.compression_ratio_milli")
        .set_max(static_cast<std::int64_t>(
            result.compression_ratio * 1000.0));

    for (auto& node : nodes) {
      node.sample_dir();
      node.mark();
      node.host.reset_peak();
      node.device->memory().reset_peak();
    }
  }

  // ---- shuffle (adopt fused ingest results, or assemble stage files) -------
  std::vector<unsigned> lengths;  ///< all partition keys, ascending
  {
    util::WallTimer wall;
    const MetricsMark marks = MetricsMark::take();
    if (obs::Profiler* prof = obs::Profiler::active()) {
      prof->begin_phase("shuffle", to_ps(cluster_clock));
    }
    std::atomic<unsigned> fresh_keys{0};
    for_each_node(nodes, [&](NodeContext& node) {
      io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
      const std::filesystem::path stage_dir = node.dir / "shuffle";

      if (fused) {
        // Nothing was staged: the ingest already turned every owned
        // partition into sorted runs. Adopt its per-key results — keys
        // with no suffix data can never produce candidates, so their
        // prefix runs are dropped (the staged path drops them too).
        std::error_code ec;
        for (auto& [key, kr] : node.fused) {
          if (!kr.suffix.seen) {
            for (const auto& run : kr.prefix.runs) {
              std::filesystem::remove(run, ec);
            }
            continue;
          }
          char name[32];
          std::snprintf(name, sizeof(name), "sfx_%05u.bin", key);
          node.owned_sfx[key] = stage_dir / name;  // never materialized
          std::snprintf(name, sizeof(name), "pfx_%05u.bin", key);
          node.owned_pfx[key] = stage_dir / name;
          node.merged_hash[key] =
              combine_role_hashes(kr.suffix.hash, kr.prefix.hash);
          node.shuffle_logical += kr.suffix.bytes + kr.prefix.bytes;
          node.did_work = true;
          c_keys_merged.add(1);
          fresh_keys.fetch_add(1, std::memory_order_relaxed);
        }
        node.sample_dir();
        return;
      }

      // Stage files present on disk, grouped by key and ordered by global
      // block id; ascending-block concatenation reproduces the single-node
      // partition bytes exactly.
      std::map<unsigned, std::map<std::uint32_t, std::filesystem::path>>
          sfx_stage, pfx_stage;
      for (const auto& entry :
           std::filesystem::directory_iterator(stage_dir)) {
        const std::string name = entry.path().filename().string();
        char role[4] = {};
        unsigned key = 0, block = 0;
        if (std::sscanf(name.c_str(), "stage_%3[a-z]_%u_%u", role, &key,
                        &block) != 3) {
          continue;
        }
        (role[0] == 's' ? sfx_stage : pfx_stage)[key][block] = entry.path();
      }

      // Keys to own: those with suffix data (lengths with only prefixes
      // can never produce candidates — the single-node sort drops them
      // too) plus keys a previous run already merged.
      std::set<unsigned> keys;
      for (const auto& [key, blocks] : sfx_stage) keys.insert(key);
      if (node.checkpoint != nullptr) {
        for (const std::string& ck :
             node.checkpoint->keys_with_prefix("shuffle:key:")) {
          keys.insert(static_cast<unsigned>(std::stoul(ck.substr(12))));
        }
      }

      for (const unsigned key : keys) {
        char name[32];
        std::snprintf(name, sizeof(name), "sfx_%05u.bin", key);
        const std::filesystem::path merged_sfx = stage_dir / name;
        std::snprintf(name, sizeof(name), "pfx_%05u.bin", key);
        const std::filesystem::path merged_pfx = stage_dir / name;
        const std::string ck = shuffle_ck_key(key);

        if (node.checkpoint != nullptr && node.checkpoint->has(ck)) {
          // Adopt: the merged files still exist, or both sorts already
          // consumed them (external_sort_file skips whole files before
          // opening its input). The write→record→delete ordering below
          // guarantees one of the two holds.
          char sorted_name[32];
          std::snprintf(sorted_name, sizeof(sorted_name),
                        "sfx_%05u.sorted", key);
          const bool sfx_sorted =
              node.checkpoint->has("sort:file:" + std::string(sorted_name));
          std::snprintf(sorted_name, sizeof(sorted_name),
                        "pfx_%05u.sorted", key);
          const bool pfx_sorted =
              node.checkpoint->has("sort:file:" + std::string(sorted_name));
          std::error_code ec;
          const bool merged_exist =
              std::filesystem::exists(merged_sfx, ec) &&
              std::filesystem::exists(merged_pfx, ec);
          if ((sfx_sorted && pfx_sorted) || merged_exist) {
            node.owned_sfx[key] = merged_sfx;
            node.owned_pfx[key] = merged_pfx;
            node.merged_hash[key] = node.checkpoint->counter(ck, "hash");
            node.shuffle_logical += node.checkpoint->counter(ck, "bytes");
            continue;
          }
        }

        // Per-role content chains, combined like the fused ingest's.
        std::uint64_t h_sfx = kFnvOffset;
        std::uint64_t h_pfx = kFnvOffset;
        std::uint64_t merged_bytes = 0;
        const auto concatenate =
            [&](const std::map<std::uint32_t, std::filesystem::path>& stages,
                const std::filesystem::path& out_path,
                std::uint64_t& hash) {
              io::WriteOnlyStream out(out_path, node.shuffle_io);
              std::vector<std::byte> buffer(kShuffleChunkBytes);
              for (const auto& [block, stage_path] : stages) {
                {
                  io::ReadOnlyStream in(stage_path, node.shuffle_io);
                  for (;;) {
                    const std::size_t n = in.read_bytes(buffer);
                    if (n == 0) break;
                    hash = fnv_bytes(hash, buffer.data(), n);
                    merged_bytes += n;
                    out.write_bytes(
                        std::span<const std::byte>(buffer.data(), n));
                  }
                }
                if (node.checkpoint == nullptr) {
                  // Without crash recovery to serve, a consumed stage
                  // file is dead weight — drop it now so the workspace
                  // high-water mark shrinks instead of doubling.
                  std::error_code del_ec;
                  std::filesystem::remove(stage_path, del_ec);
                }
              }
              out.close();
            };
        concatenate(sfx_stage[key], merged_sfx, h_sfx);
        concatenate(pfx_stage[key], merged_pfx, h_pfx);
        const std::uint64_t hash = combine_role_hashes(h_sfx, h_pfx);
        node.owned_sfx[key] = merged_sfx;
        node.owned_pfx[key] = merged_pfx;
        node.merged_hash[key] = hash;
        node.shuffle_logical += merged_bytes;
        node.sample_dir();
        if (node.checkpoint != nullptr) {
          // write → record → delete: the adopt branch above depends on
          // the merged files outliving the manifest entry.
          node.checkpoint->record(ck,
                                  {{"hash", hash}, {"bytes", merged_bytes}});
          std::error_code ec;
          for (const auto& [block, stage_path] : sfx_stage[key]) {
            std::filesystem::remove(stage_path, ec);
          }
          for (const auto& [block, stage_path] : pfx_stage[key]) {
            std::filesystem::remove(stage_path, ec);
          }
        }
        node.did_work = true;
        c_keys_merged.add(1);
        fresh_keys.fetch_add(1, std::memory_order_relaxed);
      }

      // Prefix-only keys cannot produce candidates; drop their stage data.
      std::error_code ec;
      for (const auto& [key, blocks] : pfx_stage) {
        if (keys.count(key) > 0) continue;
        for (const auto& [block, stage_path] : blocks) {
          std::filesystem::remove(stage_path, ec);
        }
      }
    });

    // The master collects the global key list from every owner (the one
    // piece of metadata the reduce schedule needs).
    for (auto& node : nodes) {
      net.register_handler(
          node.id, kGatherKeys,
          [&node](unsigned, std::span<const std::byte>) {
            Payload reply;
            for (const auto& [key, path] : node.owned_sfx) {
              put(reply, static_cast<std::uint32_t>(key));
            }
            return reply;
          });
    }
    for (unsigned i = 0; i < config.node_count; ++i) {
      const Payload reply = net.request(0, i, kGatherKeys, {});
      std::size_t off = 0;
      while (off < reply.size()) {
        lengths.push_back(get<std::uint32_t>(reply, off));
      }
    }
    std::sort(lengths.begin(), lengths.end());

    // Order-independent content fingerprint of the whole shuffle.
    {
      std::map<unsigned, std::uint64_t> all_hashes;
      for (const auto& node : nodes) {
        for (const auto& [key, h] : node.merged_hash) all_hashes[key] = h;
      }
      std::uint64_t fold = kFnvOffset;
      for (const auto& [key, h] : all_hashes) {
        fold = fnv_u64(fold, key);
        fold = fnv_u64(fold, h);
      }
      result.shuffle_hash = fold;
    }

    util::PhaseStats phase;
    phase.name = "shuffle";
    phase.wall_seconds = wall.seconds();
    std::vector<NodePhaseBreakdown> breakdown(config.node_count);
    double compute_max = 0.0;  ///< map lanes alone (already charged)
    double overlap_max = 0.0;  ///< map lanes + push traffic
    double sync1_max = 0.0;    ///< push traffic as its own barrier phase
    double sec2_max = 0.0;
    double disk_max = 0.0;
    double net_max = 0.0;
    double codec_max = 0.0;
    unsigned overlap_arg = 0, sync1_arg = 0;  ///< binding nodes
    unsigned sec2_arg = 0;
    double sec2_disk = 0.0, sec2_net = 0.0;  ///< binding node's components
    for (auto& node : nodes) {
      const MapLanes& lanes = map_lanes[node.id];
      const auto sh_now = node.shuffle_io.snapshot();
      const double sdisk2 =
          static_cast<double>(sh_now.bytes_read -
                              node.shuffle_mark.bytes_read +
                              sh_now.bytes_written -
                              node.shuffle_mark.bytes_written) /
          disk_bw;
      const double net2 = net.modeled_seconds(node.id);

      compute_max = std::max(
          compute_max, std::max({lanes.dev, lanes.mdisk, lanes.host}));
      const double node_overlap =
          std::max({lanes.dev, lanes.mdisk + lanes.sdisk1,
                    lanes.host + lanes.codec, lanes.net1});
      if (node_overlap > overlap_max) overlap_arg = node.id;
      overlap_max = std::max(overlap_max, node_overlap);
      const double node_sync1 = lanes.sdisk1 + lanes.net1 + lanes.codec;
      if (node_sync1 > sync1_max) sync1_arg = node.id;
      sync1_max = std::max(sync1_max, node_sync1);
      const double node_sec2 =
          streamed ? std::max(sdisk2, net2) : sdisk2 + net2;
      if (node_sec2 > sec2_max) {
        sec2_arg = node.id;
        sec2_disk = sdisk2;
        sec2_net = net2;
      }
      sec2_max = std::max(sec2_max, node_sec2);
      disk_max = std::max(disk_max, lanes.sdisk1 + sdisk2);
      net_max = std::max(net_max, lanes.net1 + net2);
      codec_max = std::max(codec_max, lanes.codec);

      phase.disk_bytes_read +=
          sh_now.bytes_read - node.shuffle_mark.bytes_read;
      phase.disk_bytes_written +=
          sh_now.bytes_written - node.shuffle_mark.bytes_written;
      phase.peak_host_bytes =
          std::max(phase.peak_host_bytes, node.host.peak());
      phase.peak_device_bytes =
          std::max(phase.peak_device_bytes, node.device->memory().peak());

      NodePhaseBreakdown& b = breakdown[node.id];
      b.disk_seconds = lanes.sdisk1 + sdisk2;
      b.host_seconds = lanes.codec;
      b.network_seconds = lanes.net1 + net2;
    }
    // Section-1 stage traffic also moved bytes; account them here (they
    // were excluded from the map phase's byte totals, which only cover
    // node.io).
    for (auto& node : nodes) {
      phase.disk_bytes_read +=
          node.shuffle_mark.bytes_read;
      phase.disk_bytes_written += node.shuffle_mark.bytes_written;
    }
    for (const auto& node : nodes) {
      result.shuffle_bytes += node.shuffle_logical;
    }
    phase.disk_seconds = disk_max;
    phase.host_seconds = codec_max;
    // Streamed: the push traffic hides behind map compute; only the part
    // that outlasts it is exposed, plus the assembly section. Synchronous:
    // both sections run as barriers.
    phase.modeled_seconds =
        streamed ? std::max(0.0, overlap_max - compute_max) + sec2_max
                 : sync1_max + sec2_max;
    // Work the shuffle was responsible for (disk motion, wire time, codec
    // cycles) over the time it actually exposed: >1 means the map hid it.
    phase.overlap_efficiency =
        phase.modeled_seconds > 0.0
            ? (disk_max + net_max + codec_max) / phase.modeled_seconds
            : 1.0;
    phase.resumed = fresh_keys.load() == 0 && !lengths.empty();
    if (phase.resumed) ++result.phases_resumed;
    marks.finish(phase);
    if (obs::Profiler* prof = obs::Profiler::active()) {
      if (streamed) {
        // Only the push time the map couldn't hide is exposed.
        prof->chain(static_cast<int>(overlap_arg), "network",
                    "push-exposed",
                    to_ps(std::max(0.0, overlap_max - compute_max)));
        prof->chain(static_cast<int>(sec2_arg),
                    sec2_disk >= sec2_net ? "disk" : "network", "assembly",
                    to_ps(std::max(sec2_disk, sec2_net)));
      } else {
        const MapLanes& sl = map_lanes[sync1_arg];
        const int sn = static_cast<int>(sync1_arg);
        prof->chain(sn, "disk", "push-stage", to_ps(sl.sdisk1));
        prof->chain(sn, "network", "push-wire", to_ps(sl.net1));
        prof->chain(sn, "host", "push-codec", to_ps(sl.codec));
        prof->chain(static_cast<int>(sec2_arg), "disk", "assembly",
                    to_ps(sec2_disk));
        prof->chain(static_cast<int>(sec2_arg), "network", "assembly",
                    to_ps(sec2_net));
      }
    }
    trace_cluster_phase(cluster_clock, phase, breakdown, streamed);
    cluster_clock += phase.modeled_seconds;
    result.stats.add(std::move(phase));
    result.per_node.push_back(std::move(breakdown));

    net.reset_counters();
    for (auto& node : nodes) {
      node.mark();
      node.host.reset_peak();
      node.device->memory().reset_peak();
    }
  }

  // ---- sort ----------------------------------------------------------------
  {
    util::WallTimer wall;
    const MetricsMark marks = MetricsMark::take();
    if (obs::Profiler* prof = obs::Profiler::active()) {
      prof->begin_phase("sort", to_ps(cluster_clock));
    }
    for_each_node(nodes, [&](NodeContext& node) {
      io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
      const std::filesystem::path sorted_dir = node.dir / "sorted";
      std::filesystem::create_directories(sorted_dir);
      for (const auto& [key, raw_sfx] : node.owned_sfx) {
        char sfx_name[32], pfx_name[32];
        std::snprintf(sfx_name, sizeof(sfx_name), "sfx_%05u.sorted", key);
        std::snprintf(pfx_name, sizeof(pfx_name), "pfx_%05u.sorted", key);
        core::SortedPartition part;
        part.length = key;
        part.suffix_file = sorted_dir / sfx_name;
        part.prefix_file = sorted_dir / pfx_name;
        const bool done =
            node.checkpoint != nullptr &&
            node.checkpoint->has("sort:file:" + std::string(sfx_name)) &&
            node.checkpoint->has("sort:file:" + std::string(pfx_name));
        if (!done) {
          if (io::FaultInjector* injector = io::FaultInjector::active()) {
            injector->on_node_op(node.id,
                                 "sort:" + std::string(sfx_name));
          }
          node.did_work = true;
        }
        if (fused) {
          // The ingest already produced the level-1 runs; start straight
          // at the merge tree. Run cut points and the pairwise merge
          // order match the staged external sort, so the .sorted bytes
          // are identical.
          ShuffleIngest::KeyResult& kr = node.fused.at(key);
          part.suffix_records =
              core::merge_sorted_runs(node.ws, std::move(kr.suffix.runs),
                                      part.suffix_file, geometry)
                  .records;
          node.sample_dir();
          part.prefix_records =
              core::merge_sorted_runs(node.ws, std::move(kr.prefix.runs),
                                      part.prefix_file, geometry)
                  .records;
        } else {
          part.suffix_records =
              core::external_sort_file(node.ws, raw_sfx, part.suffix_file,
                                       geometry)
                  .records;
          node.sample_dir();
          part.prefix_records =
              core::external_sort_file(node.ws, node.owned_pfx.at(key),
                                       part.prefix_file, geometry)
                  .records;
          std::error_code ec;
          std::filesystem::remove(raw_sfx, ec);
          std::filesystem::remove(node.owned_pfx.at(key), ec);
        }
        node.sorted.push_back(std::move(part));
      }
      node.sample_dir();
    });

    util::PhaseStats phase;
    phase.name = "sort";
    phase.wall_seconds = wall.seconds();
    std::vector<NodePhaseBreakdown> breakdown(config.node_count);
    double modeled_max = 0.0, dev_max = 0.0, disk_max = 0.0;
    unsigned modeled_arg = 0;
    double arg_dev = 0.0, arg_disk = 0.0;
    bool any_work = false;
    for (auto& node : nodes) {
      const auto io_now = node.io.snapshot();
      const double dev =
          (node.device->modeled_seconds() - node.device_mark) *
          config.machine.time_scale;
      const double disk =
          static_cast<double>(io_now.bytes_read - node.io_mark.bytes_read +
                              io_now.bytes_written -
                              node.io_mark.bytes_written) /
          disk_bw;
      const double node_modeled = streamed ? std::max(dev, disk) : dev + disk;
      if (node_modeled > modeled_max) {
        modeled_arg = node.id;
        arg_dev = dev;
        arg_disk = disk;
      }
      modeled_max = std::max(modeled_max, node_modeled);
      dev_max = std::max(dev_max, dev);
      disk_max = std::max(disk_max, disk);
      any_work = any_work || node.did_work;
      phase.disk_bytes_read += io_now.bytes_read - node.io_mark.bytes_read;
      phase.disk_bytes_written +=
          io_now.bytes_written - node.io_mark.bytes_written;
      phase.peak_host_bytes =
          std::max(phase.peak_host_bytes, node.host.peak());
      phase.peak_device_bytes =
          std::max(phase.peak_device_bytes, node.device->memory().peak());
      NodePhaseBreakdown& b = breakdown[node.id];
      b.disk_seconds = disk;
      b.device_seconds = dev;
    }
    phase.device_seconds = dev_max;
    phase.disk_seconds = disk_max;
    phase.modeled_seconds = modeled_max;
    phase.overlap_efficiency =
        phase.modeled_seconds > 0.0
            ? (dev_max + disk_max) / phase.modeled_seconds
            : 1.0;
    phase.resumed = !any_work && !lengths.empty();
    if (phase.resumed) ++result.phases_resumed;
    marks.finish(phase);
    if (obs::Profiler* prof = obs::Profiler::active()) {
      const int sn = static_cast<int>(modeled_arg);
      if (streamed) {
        prof->chain(sn, arg_dev >= arg_disk ? "device" : "disk",
                    "sort-merge", to_ps(std::max(arg_dev, arg_disk)));
      } else {
        prof->chain(sn, "device", "sort-merge", to_ps(arg_dev));
        prof->chain(sn, "disk", "sort-merge", to_ps(arg_disk));
      }
    }
    trace_cluster_phase(cluster_clock, phase, breakdown, streamed);
    cluster_clock += phase.modeled_seconds;
    result.stats.add(std::move(phase));
    result.per_node.push_back(std::move(breakdown));

    net.reset_counters();
    for (auto& node : nodes) {
      node.mark();
      node.host.reset_peak();
      node.device->memory().reset_peak();
    }
  }

  // ---- reduce --------------------------------------------------------------
  // The merged graph used by the compress phase: token mode gathers per-node
  // edge sets afterwards; BSP mode builds it directly on the master.
  graph::StringGraph merged(result.read_count);
  {
    util::WallTimer wall;
    const MetricsMark marks = MetricsMark::take();
    if (obs::Profiler* prof = obs::Profiler::active()) {
      prof->begin_phase("reduce", to_ps(cluster_clock));
    }
    obs::Histogram& h_scan =
        obs::MetricsRegistry::global().histogram("dist.reduce.partition_scan_ps");
    util::PhaseStats phase;
    phase.name = "reduce";
    std::vector<NodePhaseBreakdown> breakdown(config.node_count);
    std::vector<double> host_lane(config.node_count, 0.0);
    std::vector<double> net_lane(config.node_count, 0.0);

    if (config.graph == core::GraphMode::kReduced) {
      // Distributed transitive reduction + contig generation
      // (arXiv:2207.04350). Vertex ids are range-partitioned into
      // contiguous blocks, one per node:
      //
      //   1. every node scans its owned partitions in parallel (no token —
      //      the full graph keeps all candidates, so there is nothing to
      //      coordinate) and routes each candidate edge, in both twin
      //      directions, to the owner of its source vertex;
      //   2. owners upsert arrivals into canonically sorted adjacency —
      //      insertion is order-independent, so the per-owner union equals
      //      the single-node FullStringGraph block for block;
      //   3. each owner fetches the boundary (halo) adjacency its block's
      //      out-edges point into and marks transitive edges against the
      //      immutable pre-sweep state — the same pure per-vertex function
      //      the sequential and thread-pool reductions compute;
      //   4. owners sweep their blocks and send every surviving edge to
      //      its destination's owner as a unitig link (dst in-degree
      //      counting; src out-degree-1 links are chain candidates);
      //   5. node 0 gathers the links that survived the in-degree-1 test
      //      and replays them in ascending source order — exactly
      //      FullStringGraph::to_unitig_graph()'s insertion order, so
      //      contigs are byte-identical to the single-node reduced
      //      pipeline at every node count.
      const std::uint64_t vcount =
          static_cast<std::uint64_t>(result.read_count) * 2;
      const std::uint64_t vspan = std::max<std::uint64_t>(
          1, (vcount + config.node_count - 1) / config.node_count);
      auto vertex_owner = [&](graph::VertexId v) {
        return static_cast<unsigned>(std::min<std::uint64_t>(
            v / vspan, config.node_count - 1));
      };

      struct OwnerBlock {
        std::uint64_t begin = 0;
        std::uint64_t end = 0;  ///< one past the last owned vertex
        std::vector<std::vector<graph::Edge>> adj;  ///< [v - begin]
        std::uint64_t received = 0;  ///< kGraphEdges arrivals (insert cost)
        /// Boundary adjacency fetched from other owners in stage 3; only
        /// vertices some owned edge points at are present.
        std::map<graph::VertexId, std::vector<graph::Edge>> halo;
        std::vector<std::vector<std::uint8_t>> transitive;  ///< [v - begin]
        std::vector<std::uint32_t> indeg;     ///< reduced-graph in-degree
        std::vector<graph::Edge> links;       ///< out-degree-1 candidates
        std::uint64_t full_edges = 0;         ///< directed, pre-sweep
        std::uint64_t removed = 0;
      };
      std::vector<OwnerBlock> blocks_v(config.node_count);
      for (unsigned i = 0; i < config.node_count; ++i) {
        OwnerBlock& block = blocks_v[i];
        block.begin = std::min<std::uint64_t>(vcount, i * vspan);
        block.end = i + 1 == config.node_count
                        ? vcount
                        : std::min<std::uint64_t>(vcount, (i + 1) * vspan);
        block.adj.resize(block.end - block.begin);
        block.transitive.resize(block.end - block.begin);
        // Sized before any stage-4 link can arrive.
        block.indeg.assign(block.end - block.begin, 0);
      }

      // Handlers run serialized per destination node (the network's
      // per-node mutex), so plain fields are safe; the for_each_node
      // barriers between stages order the cross-stage reads.
      for (auto& node : nodes) {
        OwnerBlock& block = blocks_v[node.id];
        net.register_handler(
            node.id, kGraphEdges,
            [&block](unsigned, std::span<const std::byte> payload) {
              std::size_t offset = 0;
              while (offset < payload.size()) {
                const auto e = get<graph::Edge>(payload, offset);
                graph::upsert_directed_edge(block.adj[e.src - block.begin],
                                            e.src, e.dst, e.overlap);
                ++block.received;
              }
              return Payload{};
            });
        net.register_handler(
            node.id, kAdjFetch,
            [&block](unsigned, std::span<const std::byte> payload) {
              Payload reply;
              std::size_t offset = 0;
              while (offset < payload.size()) {
                const auto v = get<graph::VertexId>(payload, offset);
                const auto& adj = block.adj[v - block.begin];
                put(reply, v);
                put(reply, static_cast<std::uint32_t>(adj.size()));
                for (const graph::Edge& e : adj) put(reply, e);
              }
              return reply;
            });
        net.register_handler(
            node.id, kUnitigLinks,
            [&block](unsigned, std::span<const std::byte> payload) {
              std::size_t offset = 0;
              while (offset < payload.size()) {
                const auto link = get<UnitigLink>(payload, offset);
                ++block.indeg[link.dst - block.begin];
                if (link.out_one != 0) {
                  block.links.push_back(
                      graph::Edge{link.src, link.dst, link.overlap});
                }
              }
              return Payload{};
            });
        net.register_handler(
            node.id, kGatherUnitigs,
            [&block](unsigned, std::span<const std::byte>) {
              Payload reply;
              for (const graph::Edge& e : block.links) {
                if (block.indeg[e.dst - block.begin] == 1) put(reply, e);
              }
              return reply;
            });
      }

      // ---- stage 1+2: scan owned partitions, route candidates ----------
      // Candidates are routed only after a node finishes all of its scans,
      // so a crash mid-scan leaves no partial deliveries; resume re-routes
      // everything deterministically from the sidecars.
      std::vector<double> owner_busy(config.node_count, 0.0);
      std::vector<const char*> owner_lane(config.node_count, "host");
      std::atomic<std::uint64_t> cand_total{0};
      std::atomic<unsigned> parts_total{0};
      std::atomic<unsigned> parts_restored{0};
      const std::uint64_t edges_per_chunk =
          std::max<std::uint64_t>(1, kShuffleChunkBytes /
                                         sizeof(graph::Edge));
      for_each_node(nodes, [&](NodeContext& node) {
        struct Lanes {
          double disk = 0.0, dev = 0.0, host = 0.0;
        } lanes;
        double busy = 0.0;
        std::vector<graph::Edge> mine;
        io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
        for (const auto& part : node.sorted) {
          const unsigned l = part.length;
          parts_total.fetch_add(1, std::memory_order_relaxed);
          if (io::FaultInjector* injector = io::FaultInjector::active()) {
            injector->on_node_op(node.id, full_cand_key(l));
          }

          if (node.checkpoint != nullptr &&
              node.checkpoint->has(full_cand_key(l))) {
            auto restored = read_full_candidates(node, l);
            if (restored.has_value()) {
              cand_total.fetch_add(
                  node.checkpoint->counter(full_cand_key(l), "candidates"),
                  std::memory_order_relaxed);
              mine.insert(mine.end(), restored->begin(), restored->end());
              parts_restored.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
          }

          const auto io_before = node.io.snapshot();
          const double dev_before = node.device->modeled_seconds();
          core::ReduceOptions options;
          options.streamed = config.streamed;
          std::vector<graph::Edge> part_cands;
          options.candidate_sink =
              [&part_cands](graph::VertexId u, graph::VertexId v,
                            std::uint16_t overlap, const gpu::Key128&) {
                part_cands.push_back(graph::Edge{u, v, overlap});
              };
          graph::StringGraph scratch(0);  // unused in sink mode
          const core::PartitionReduceStats stats =
              core::reduce_partition(node.ws, part, scratch, options);
          node.did_work = true;
          cand_total.fetch_add(stats.candidates, std::memory_order_relaxed);
          c_partitions.add(1);

          if (node.checkpoint != nullptr) {
            write_full_candidates(
                node, l, std::span<const graph::Edge>(part_cands));
            node.checkpoint->record(full_cand_key(l),
                                    {{"candidates", stats.candidates}});
          }
          mine.insert(mine.end(), part_cands.begin(), part_cands.end());

          const auto io_after = node.io.snapshot();
          const double disk_t =
              static_cast<double>(io_after.bytes_read -
                                  io_before.bytes_read +
                                  io_after.bytes_written -
                                  io_before.bytes_written) /
              disk_bw;
          const double dev_t =
              (node.device->modeled_seconds() - dev_before) *
              config.machine.time_scale;
          const double host_t =
              static_cast<double>(stats.host_bytes) / host_bw;
          host_lane[node.id] += host_t;
          h_scan.record(to_ps(disk_t + dev_t + host_t));
          lanes.disk += disk_t;
          lanes.dev += dev_t;
          lanes.host += host_t;
          if (streamed) {
            busy = std::max({lanes.disk, lanes.dev, lanes.host});
          } else {
            busy += disk_t + dev_t + host_t;
          }
        }
        owner_busy[node.id] = busy;
        owner_lane[node.id] =
            dominant_lane(lanes.dev, lanes.disk, lanes.host);

        // Route: both twin directions travel to their source's owner, so
        // every owner sees exactly the directed edges the single-node
        // FullStringGraph::add_edge would have stored in its block.
        std::vector<std::vector<graph::Edge>> outbound(config.node_count);
        for (const graph::Edge& e : mine) {
          if (e.src == e.dst || e.dst == graph::complement_vertex(e.src)) {
            continue;  // add_edge's self/complement guard
          }
          outbound[vertex_owner(e.src)].push_back(e);
          const graph::Edge twin{graph::complement_vertex(e.dst),
                                 graph::complement_vertex(e.src), e.overlap};
          outbound[vertex_owner(twin.src)].push_back(twin);
        }
        for (unsigned k = 0; k < config.node_count; ++k) {
          const auto& out = outbound[k];
          for (std::size_t base = 0; base < out.size();
               base += edges_per_chunk) {
            const std::size_t count =
                std::min<std::size_t>(edges_per_chunk, out.size() - base);
            Payload payload(count * sizeof(graph::Edge));
            std::memcpy(payload.data(), out.data() + base,
                        count * sizeof(graph::Edge));
            (void)net.request(node.id, k, kGraphEdges, payload);
          }
        }
      });
      result.candidate_edges = cand_total.load(std::memory_order_relaxed);
      const double scan_max =
          *std::max_element(owner_busy.begin(), owner_busy.end());
      const auto scan_arg = static_cast<unsigned>(std::distance(
          owner_busy.begin(),
          std::max_element(owner_busy.begin(), owner_busy.end())));

      // ---- stage 3: halo fetch + blocked transitive marking ------------
      // Adjacency is immutable for the whole barrier (concurrent reads
      // only), which is the byte-identity argument: every vertex's flags
      // are the same pure function FullStringGraph::reduce() computes.
      auto length_of = [&read_lengths](graph::VertexId w) {
        return read_lengths[w >> 1];
      };
      for_each_node(nodes, [&](NodeContext& node) {
        OwnerBlock& block = blocks_v[node.id];
        std::vector<std::vector<graph::VertexId>> wanted(config.node_count);
        for (const auto& adj : block.adj) {
          for (const graph::Edge& e : adj) {
            const unsigned owner = vertex_owner(e.dst);
            if (owner != node.id) wanted[owner].push_back(e.dst);
          }
        }
        const std::uint64_t ids_per_chunk = std::max<std::uint64_t>(
            1, kShuffleChunkBytes / sizeof(graph::VertexId));
        for (unsigned k = 0; k < config.node_count; ++k) {
          auto& ids = wanted[k];
          if (ids.empty()) continue;
          std::sort(ids.begin(), ids.end());
          ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
          c_halo.add(static_cast<std::int64_t>(ids.size()));
          for (std::size_t base = 0; base < ids.size();
               base += ids_per_chunk) {
            const std::size_t count =
                std::min<std::size_t>(ids_per_chunk, ids.size() - base);
            Payload payload(count * sizeof(graph::VertexId));
            std::memcpy(payload.data(), ids.data() + base,
                        count * sizeof(graph::VertexId));
            const Payload reply = net.request(node.id, k, kAdjFetch,
                                              payload);
            std::size_t offset = 0;
            while (offset < reply.size()) {
              const auto v = get<graph::VertexId>(reply, offset);
              const auto n_edges = get<std::uint32_t>(reply, offset);
              auto& halo = block.halo[v];
              halo.reserve(n_edges);
              for (std::uint32_t j = 0; j < n_edges; ++j) {
                halo.push_back(get<graph::Edge>(reply, offset));
              }
            }
          }
        }

        static const std::vector<graph::Edge> kEmptyAdj;
        auto adjacency_of =
            [&block](graph::VertexId w) -> const std::vector<graph::Edge>& {
          if (w >= block.begin && w < block.end) {
            return block.adj[w - block.begin];
          }
          const auto it = block.halo.find(w);
          return it == block.halo.end() ? kEmptyAdj : it->second;
        };
        std::vector<std::uint8_t> mark(vcount, 0);
        for (std::uint64_t v = block.begin; v < block.end; ++v) {
          graph::mark_transitive_edges(
              block.adj[v - block.begin], length_of(v), adjacency_of,
              length_of, mark, block.transitive[v - block.begin]);
        }
      });

      // ---- stage 4: sweep + unitig-link exchange -----------------------
      // Receivers only mutate their own indeg/links (serialized by the
      // network's per-node handler mutex), never adjacency, so the sweep
      // and the exchange share one barrier.
      for_each_node(nodes, [&](NodeContext& node) {
        OwnerBlock& block = blocks_v[node.id];
        std::vector<std::vector<UnitigLink>> out(config.node_count);
        for (std::uint64_t v = block.begin; v < block.end; ++v) {
          auto& adj = block.adj[v - block.begin];
          const auto& flags = block.transitive[v - block.begin];
          block.full_edges += adj.size();
          std::size_t keep = 0;
          for (std::size_t i = 0; i < adj.size(); ++i) {
            if (flags[i] == 0) adj[keep++] = adj[i];
          }
          block.removed += adj.size() - keep;
          adj.resize(keep);
          const std::uint16_t out_one = keep == 1 ? 1 : 0;
          for (const graph::Edge& e : adj) {
            out[vertex_owner(e.dst)].push_back(
                UnitigLink{e.src, e.dst, e.overlap, out_one});
          }
        }
        const std::uint64_t links_per_chunk = std::max<std::uint64_t>(
            1, kShuffleChunkBytes / sizeof(UnitigLink));
        for (unsigned k = 0; k < config.node_count; ++k) {
          const auto& links = out[k];
          for (std::size_t base = 0; base < links.size();
               base += links_per_chunk) {
            const std::size_t count =
                std::min<std::size_t>(links_per_chunk, links.size() - base);
            Payload payload(count * sizeof(UnitigLink));
            std::memcpy(payload.data(), links.data() + base,
                        count * sizeof(UnitigLink));
            (void)net.request(node.id, k, kUnitigLinks, payload);
          }
        }
      });

      // ---- stage 5: master gathers + stitches --------------------------
      // Replaying the surviving links in ascending source order is exactly
      // to_unitig_graph()'s insertion order (each qualifying source
      // contributes one edge), so the merged graph — and therefore the
      // contigs — match the single-node reduced pipeline byte for byte.
      std::vector<graph::Edge> stitched;
      {
        const obs::Profiler::EdgeHint hint(obs::ProfEdgeKind::kGather);
        for (unsigned i = 0; i < config.node_count; ++i) {
          const Payload reply = net.request(0, i, kGatherUnitigs, {});
          const std::size_t count = reply.size() / sizeof(graph::Edge);
          if (count == 0) continue;  // an empty reply's data() may be null
          const std::size_t base = stitched.size();
          stitched.resize(base + count);
          std::memcpy(stitched.data() + base, reply.data(),
                      count * sizeof(graph::Edge));
        }
      }
      std::sort(stitched.begin(), stitched.end(),
                [](const graph::Edge& a, const graph::Edge& b) {
                  return a.src < b.src;  // src unique among survivors
                });
      for (const graph::Edge& e : stitched) {
        merged.try_add_edge(e.src, e.dst, e.overlap);
      }
      result.accepted_edges = merged.edge_count() / 2;
      c_unitig_links.add(static_cast<std::int64_t>(stitched.size()));
      for (const OwnerBlock& block : blocks_v) {
        result.full_edges += block.full_edges;
        result.transitive_removed += block.removed;
      }
      c_full_edges.add(static_cast<std::int64_t>(result.full_edges));
      c_removed.add(static_cast<std::int64_t>(result.transitive_removed));

      // Model: the stages are barriers, so the phase is the sum of each
      // stage's slowest node — scan, insert (per arriving edge), mark (a
      // host-lane pass over the block's pre-sweep adjacency, the same
      // bytes the single-node reduction charges), and the boundary/link
      // exchange on the network lane.
      double insert_max = 0.0, mark_max = 0.0, net_max = 0.0;
      unsigned insert_arg = 0, mark_arg = 0, net_arg = 0;
      for (unsigned i = 0; i < config.node_count; ++i) {
        const double insert_t =
            static_cast<double>(blocks_v[i].received) *
            config.graph_insert_seconds;
        const double mark_t =
            static_cast<double>(blocks_v[i].full_edges) * 2 *
            sizeof(graph::Edge) / host_bw;
        host_lane[i] += mark_t;
        net_lane[i] = net.modeled_seconds(i);
        if (insert_t > insert_max) { insert_max = insert_t; insert_arg = i; }
        if (mark_t > mark_max) { mark_max = mark_t; mark_arg = i; }
        if (net_lane[i] > net_max) { net_max = net_lane[i]; net_arg = i; }
      }
      phase.modeled_seconds = scan_max + insert_max + mark_max + net_max;
      if (obs::Profiler* prof = obs::Profiler::active()) {
        prof->chain(static_cast<int>(scan_arg), owner_lane[scan_arg],
                    "straggler-scan", to_ps(scan_max));
        prof->chain(static_cast<int>(insert_arg), "host", "graph-insert",
                    to_ps(insert_max));
        prof->chain(static_cast<int>(mark_arg), "host", "transitive-mark",
                    to_ps(mark_max));
        prof->chain(static_cast<int>(net_arg), "network",
                    "boundary-exchange", to_ps(net_max));
      }
      phase.resumed = parts_total.load() > 0 &&
                      parts_restored.load() == parts_total.load();
    } else if (config.reduce_strategy == ReduceStrategy::kLengthToken) {
      for (auto& node : nodes) {
        node.graph =
            std::make_unique<graph::StringGraph>(result.read_count);
      }
      util::AtomicBitVector token(
          static_cast<std::size_t>(result.read_count) * 2);

      const std::vector<unsigned> descending(lengths.rbegin(),
                                             lengths.rend());

      // Restore the completed prefix (highest lengths first): import each
      // partition's edge delta into its owner's graph and take the token
      // from the last restored sidecar. An entry whose sidecar is missing
      // or stale ends the prefix — that partition re-runs cleanly.
      std::size_t restored = 0;
      unsigned previous_owner = UINT32_MAX;
      while (restored < descending.size()) {
        const unsigned l = descending[restored];
        NodeContext& node = nodes[owner_of(l, config.node_count)];
        if (node.checkpoint == nullptr ||
            !node.checkpoint->has(reduce_ck_key(l))) {
          break;
        }
        auto delta = read_reduce_sidecar(node, l, result.read_count);
        if (!delta.has_value()) break;
        node.graph->import_edges(delta->edges);
        token = std::move(delta->token);
        result.candidate_edges +=
            node.checkpoint->counter(reduce_ck_key(l), "candidates");
        result.accepted_edges +=
            node.checkpoint->counter(reduce_ck_key(l), "accepted");
        previous_owner = node.id;
        ++restored;
      }

      // Event-driven model: overlap-finding parallel per owner, graph
      // build serialized by the token (paper III-E3). Restored partitions
      // cost nothing — that is the point of resuming.
      //
      // Streamed owners keep one cumulative clock per lane and are ready
      // at the max of the three — the prefetch of the next partition's
      // disk reads and device scans runs while the host lane (and the
      // token wait) is still busy on the current one. Synchronous owners
      // chain every partition's lanes end to end.
      struct OwnerLanes {
        double disk = 0.0;
        double dev = 0.0;
        double host = 0.0;
      };
      std::vector<OwnerLanes> owner_lanes(config.node_count);
      std::vector<double> owner_busy(config.node_count, 0.0);
      double token_time = 0.0;

      for (std::size_t idx = restored; idx < descending.size(); ++idx) {
        const unsigned l = descending[idx];
        NodeContext& node = nodes[owner_of(l, config.node_count)];
        const auto part_it =
            std::find_if(node.sorted.begin(), node.sorted.end(),
                         [l](const auto& p) { return p.length == l; });
        if (part_it == node.sorted.end()) continue;

        io::FaultInjector::ScopedNode node_scope(
            static_cast<int>(node.id));
        if (io::FaultInjector* injector = io::FaultInjector::active()) {
          injector->on_node_op(node.id, reduce_ck_key(l));
        }

        const auto io_before = node.io.snapshot();
        const double dev_before = node.device->modeled_seconds();
        const std::size_t edges_before = node.graph->edges().size();

        node.graph->set_out_degree_bits(token);
        core::ReduceOptions reduce_options;
        reduce_options.streamed = config.streamed;
        const core::PartitionReduceStats stats = core::reduce_partition(
            node.ws, *part_it, *node.graph, reduce_options);
        token = node.graph->out_degree_bits();

        result.candidate_edges += stats.candidates;
        result.accepted_edges += stats.accepted;
        node.did_work = true;
        c_partitions.add(1);

        if (node.checkpoint != nullptr) {
          const std::vector<graph::Edge> all_edges = node.graph->edges();
          write_reduce_sidecar(
              node, l, token,
              std::span<const graph::Edge>(all_edges).subspan(
                  edges_before));
          node.checkpoint->record(reduce_ck_key(l),
                                  {{"candidates", stats.candidates},
                                   {"accepted", stats.accepted}});
        }

        // Model: t_o from this partition's lane costs, t_g from the
        // candidate volume.
        const auto io_after = node.io.snapshot();
        const double disk_t =
            static_cast<double>(io_after.bytes_read -
                                io_before.bytes_read +
                                io_after.bytes_written -
                                io_before.bytes_written) /
            disk_bw;
        const double dev_t =
            (node.device->modeled_seconds() - dev_before) *
            config.machine.time_scale;
        const double host_t =
            static_cast<double>(stats.host_bytes) / host_bw;
        const double t_g = static_cast<double>(stats.candidates) *
                           config.graph_insert_seconds;
        host_lane[node.id] += host_t;
        h_scan.record(to_ps(disk_t + dev_t + host_t));

        // Overlap-finding proceeds without the token.
        double busy = 0.0;
        if (streamed) {
          OwnerLanes& ol = owner_lanes[node.id];
          ol.disk += disk_t;
          ol.dev += dev_t;
          ol.host += host_t;
          busy = std::max({ol.disk, ol.dev, ol.host});
          owner_busy[node.id] = busy;
        } else {
          owner_busy[node.id] += disk_t + dev_t + host_t;
          busy = owner_busy[node.id];
        }
        double arrival = token_time;
        double hop = 0.0;
        if (previous_owner != node.id) {
          hop = transfer_seconds(
              topo, previous_owner == UINT32_MAX ? 0 : previous_owner,
              node.id, token.byte_size());
          arrival += hop;
          net_lane[node.id] += hop;
          c_token_hops.add(1);
        }
        const double start = std::max(busy, arrival);
        if (obs::Profiler* prof = obs::Profiler::active()) {
          // This partition's contribution to the event clock: the token
          // hop, the scan time the token had to wait out (the straggler),
          // then the serialized insert.
          const OwnerLanes& ol = owner_lanes[node.id];
          prof->chain(static_cast<int>(node.id), "network", "token-hop",
                      to_ps(hop));
          prof->chain(static_cast<int>(node.id),
                      streamed ? dominant_lane(ol.dev, ol.disk, ol.host)
                               : dominant_lane(dev_t, disk_t, host_t),
                      "straggler-scan", to_ps(start - arrival));
          prof->chain(static_cast<int>(node.id), "host", "graph-insert",
                      to_ps(t_g));
        }
        if (obs::Tracer* tracer = obs::Tracer::active()) {
          tracer->add_span(tracer->track("dist.token"),
                           "l" + std::to_string(l), -1, 0,
                           to_ps(cluster_clock + start), to_ps(t_g),
                           {{"owner", node.id},
                            {"candidates", static_cast<std::int64_t>(
                                               stats.candidates)}});
        }
        token_time = start + t_g;
        previous_owner = node.id;
      }
      phase.modeled_seconds = token_time;  // event model, not max-node
      phase.resumed = restored == descending.size() && !descending.empty();
    } else if (config.reduce_strategy == ReduceStrategy::kSpeculative) {
      // Partitioned speculative greedy (core::SpeculativeResolver).
      //
      // Every node scans its owned partitions in parallel — there is no
      // token to wait for, so the t_o·p scan cost divides by n — and every
      // candidate gets a global rank (partition's position in the
      // descending-length order, then the canonical in-partition offer
      // index). The resolver's speculate/reconcile supersteps then rebuild
      // exactly the sequential greedy edge set over that rank order, which
      // IS the token result: contigs are byte-identical.
      //
      // Modeled time: max over nodes of the scan lanes, plus per round
      // (max over dirty nodes of rescanned×t_g + proposals×t_g serial
      // apply at the master), plus the master's network lane — proposals
      // gather and commit deltas broadcast as real AM traffic, so incast
      // at node 0 comes out of the engine model.
      const std::vector<unsigned> descending(lengths.rbegin(),
                                             lengths.rend());
      for (auto& node : nodes) {
        net.register_handler(
            node.id, kSpecProposals,
            [](unsigned, std::span<const std::byte>) { return Payload{}; });
        net.register_handler(
            node.id, kSpecCommit,
            [](unsigned, std::span<const std::byte>) { return Payload{}; });
      }

      // Parallel candidate scans, resumable per partition from candidate
      // sidecars (restore skips the scan's disk reads and device kernels).
      // Each partition's candidates are collected separately, stamped with
      // the owner's lane clock at scan completion (`avail`): reconciliation
      // pipelines over the rank frontier, so the superstep for partition i
      // can run as soon as partitions 0..i are scanned, while later
      // partitions are still scanning.
      std::vector<std::vector<SpecProposal>> by_partition(descending.size());
      std::vector<double> avail(descending.size(), 0.0);
      std::vector<double> owner_busy(config.node_count, 0.0);
      // Which lane dominates each owner's scan clock — straggler-scan
      // slices on the critical path are attributed to it.
      std::vector<const char*> owner_lane(config.node_count, "host");
      std::atomic<std::uint64_t> cand_total{0};
      std::atomic<unsigned> parts_total{0};
      std::atomic<unsigned> parts_restored{0};
      for_each_node(nodes, [&](NodeContext& node) {
        struct Lanes {
          double disk = 0.0, dev = 0.0, host = 0.0;
        } lanes;
        double busy = 0.0;
        for (std::size_t idx = 0; idx < descending.size(); ++idx) {
          const unsigned l = descending[idx];
          if (owner_of(l, config.node_count) != node.id) continue;
          const auto part_it =
              std::find_if(node.sorted.begin(), node.sorted.end(),
                           [l](const auto& p) { return p.length == l; });
          if (part_it == node.sorted.end()) continue;
          parts_total.fetch_add(1, std::memory_order_relaxed);
          auto& mine = by_partition[idx];

          io::FaultInjector::ScopedNode node_scope(
              static_cast<int>(node.id));
          if (io::FaultInjector* injector = io::FaultInjector::active()) {
            injector->on_node_op(node.id, spec_cand_key(l));
          }

          if (node.checkpoint != nullptr &&
              node.checkpoint->has(spec_cand_key(l))) {
            auto restored = read_spec_candidates(node, l);
            if (restored.has_value()) {
              cand_total.fetch_add(
                  node.checkpoint->counter(spec_cand_key(l), "candidates"),
                  std::memory_order_relaxed);
              mine.insert(mine.end(), restored->begin(), restored->end());
              parts_restored.fetch_add(1, std::memory_order_relaxed);
              avail[idx] = busy;  // restored partitions cost nothing
              continue;
            }
          }

          const auto io_before = node.io.snapshot();
          const double dev_before = node.device->modeled_seconds();
          core::ReduceOptions options;
          options.streamed = config.streamed;
          std::uint64_t offer = 0;
          options.candidate_sink =
              [&mine, idx, &offer](graph::VertexId u, graph::VertexId v,
                                   std::uint16_t overlap, const gpu::Key128&) {
                mine.push_back(SpecProposal{
                    u, v, overlap, 0,
                    (static_cast<std::uint64_t>(idx) << 40) | offer++});
              };
          graph::StringGraph scratch(0);  // unused in sink mode
          const core::PartitionReduceStats stats =
              core::reduce_partition(node.ws, *part_it, scratch, options);
          node.did_work = true;
          cand_total.fetch_add(stats.candidates, std::memory_order_relaxed);
          c_partitions.add(1);

          if (node.checkpoint != nullptr) {
            write_spec_candidates(node, l,
                                  std::span<const SpecProposal>(mine));
            node.checkpoint->record(spec_cand_key(l),
                                    {{"candidates", stats.candidates}});
          }

          const auto io_after = node.io.snapshot();
          const double disk_t =
              static_cast<double>(io_after.bytes_read -
                                  io_before.bytes_read +
                                  io_after.bytes_written -
                                  io_before.bytes_written) /
              disk_bw;
          const double dev_t =
              (node.device->modeled_seconds() - dev_before) *
              config.machine.time_scale;
          const double host_t =
              static_cast<double>(stats.host_bytes) / host_bw;
          host_lane[node.id] += host_t;
          h_scan.record(to_ps(disk_t + dev_t + host_t));
          lanes.disk += disk_t;
          lanes.dev += dev_t;
          lanes.host += host_t;
          if (streamed) {
            busy = std::max({lanes.disk, lanes.dev, lanes.host});
          } else {
            busy += disk_t + dev_t + host_t;
          }
          avail[idx] = busy;
        }
        owner_busy[node.id] = busy;
        owner_lane[node.id] =
            dominant_lane(lanes.dev, lanes.disk, lanes.host);
      });
      result.candidate_edges = cand_total.load(std::memory_order_relaxed);
      const double scan_seconds =
          *std::max_element(owner_busy.begin(), owner_busy.end());

      core::SpeculativeResolver resolver(result.read_count,
                                         config.node_count);

      // Resume: pre-commit the checkpointed committed set (a sound subset
      // of the sequential-greedy edge set) and replay reconciliation over
      // all candidates — see write_spec_committed.
      std::vector<graph::Edge> committed_log;
      if (nodes[0].checkpoint != nullptr &&
          nodes[0].checkpoint->has(kSpecCommittedKey)) {
        if (auto edges = read_spec_committed(nodes[0]); edges.has_value()) {
          for (const graph::Edge& e : *edges) {
            if (resolver.graph().try_add_edge(e.src, e.dst, e.overlap)) {
              committed_log.push_back(e);
            }
          }
        }
      }

      // Pipelined horizon reconciliation. Sequential greedy's decisions on
      // a rank prefix depend only on that prefix, so the master runs each
      // partition's candidates to a fixpoint (one *superstep*, one or more
      // rounds) as soon as that partition's scan lands — while later,
      // shorter partitions are still scanning. `ready` is the running max
      // of the scan-completion stamps over the rank frontier: a superstep
      // cannot start before its partition is scanned, but rounds for
      // partition i overlap the scans of partitions > i. This is what
      // keeps the reconciliation off the critical path: the token walk
      // must *also* wait for each partition's scan, so the speculative
      // clock trails it only by the (probe-bound) round costs that don't
      // fit under the remaining scan time.
      double clock = 0.0;
      double ready = 0.0;
      unsigned supersteps = 0;
      std::uint64_t conflicts_total = 0;
      std::uint64_t proposals_total = 0;
      auto drain_to_fixpoint = [&](double* clock_io) {
        while (!resolver.done()) {
          const std::vector<unsigned> dirty = resolver.dirty_domains();
          if (dirty.empty()) break;
          const unsigned round_idx = resolver.rounds();
          if (io::FaultInjector* injector = io::FaultInjector::active()) {
            io::FaultInjector::ScopedNode master_scope(0);
            injector->on_node_op(0, spec_round_key(round_idx));
          }

          // Speculate: dirty nodes rescan their live candidates (parallel
          // across nodes — the model takes the max) and gather proposals
          // at the master.
          double rescan_max = 0.0;
          unsigned rescan_arg = 0;  ///< dirty node whose rescan binds the max
          std::vector<std::vector<SpecProposal>> per_domain;
          per_domain.reserve(dirty.size());
          for (const unsigned n : dirty) {
            std::uint64_t rescanned = 0;
            per_domain.push_back(resolver.speculate(n, &rescanned));
            // A local replay probes the committed bits and the speculative
            // overlay — no stores — so it runs at probe speed.
            const double rescan_seconds =
                static_cast<double>(rescanned) * config.graph_probe_seconds;
            if (rescan_seconds > rescan_max) {
              rescan_max = rescan_seconds;
              rescan_arg = n;
            }
            Payload payload;
            for (const SpecProposal& p : per_domain.back()) put(payload, p);
            const obs::Profiler::EdgeHint hint(obs::ProfEdgeKind::kGather);
            (void)net.request(n, 0, kSpecProposals, payload);
          }

          const core::SpeculativeResolver::RoundReport report =
              resolver.reconcile(per_domain);
          conflicts_total += report.conflicts;
          proposals_total += report.proposals;

          // Broadcast the commit delta so every node's speculative bits
          // can incorporate it next round.
          Payload commit;
          for (const graph::Edge& e : report.delta) put(commit, e);
          {
            const obs::Profiler::EdgeHint hint(
                obs::ProfEdgeKind::kBroadcast);
            for (unsigned n = 1; n < config.node_count; ++n) {
              (void)net.request(0, n, kSpecCommit, commit);
            }
          }

          committed_log.insert(committed_log.end(), report.delta.begin(),
                               report.delta.end());
          if (nodes[0].checkpoint != nullptr) {
            write_spec_committed(
                nodes[0], std::span<const graph::Edge>(committed_log));
            nodes[0].checkpoint->record(
                kSpecCommittedKey,
                {{"committed",
                  static_cast<std::uint64_t>(committed_log.size())}});
          }

          // Reconciliation is probe-bound: the master rank-merges the
          // proposal streams and bit-tests each against the committed set;
          // only the committed survivors pay the full insert cost (every
          // replica applies the broadcast delta in parallel, so the delta
          // is charged once, not per node). This is the wall-breaker: the
          // token walk pays t_g per *candidate*, reconciliation pays t_g
          // only per *accepted edge*.
          const double apply_seconds =
              static_cast<double>(report.proposals) *
                  config.graph_probe_seconds +
              static_cast<double>(report.committed) *
                  config.graph_insert_seconds;
          if (obs::Tracer* tracer = obs::Tracer::active()) {
            tracer->add_span(
                tracer->track("dist.spec"),
                "round" + std::to_string(report.round), -1, 0,
                to_ps(cluster_clock + *clock_io),
                to_ps(rescan_max + apply_seconds),
                {{"proposals",
                  static_cast<std::int64_t>(report.proposals)},
                 {"conflicts",
                  static_cast<std::int64_t>(report.conflicts)},
                 {"deferred",
                  static_cast<std::int64_t>(report.deferred)}});
          }
          if (obs::Profiler* prof = obs::Profiler::active()) {
            // The round waits on the slowest dirty node's rescan (parallel
            // across nodes, max taken) — a straggler wait — then on the
            // master's serial merge/probe/insert, the true reconcile cost.
            prof->chain(static_cast<int>(rescan_arg), "host",
                        "straggler-scan", to_ps(rescan_max));
            prof->chain(0, "host", "reconcile", to_ps(apply_seconds));
          }
          *clock_io += rescan_max + apply_seconds;
        }
      };

      unsigned ready_owner = 0;  ///< owner whose scan stamp binds `ready`
      for (std::size_t idx = 0; idx < descending.size(); ++idx) {
        if (avail[idx] > ready) {
          ready = avail[idx];
          ready_owner = owner_of(descending[idx], config.node_count);
        }
        if (by_partition[idx].empty()) continue;
        const unsigned owner = owner_of(descending[idx], config.node_count);
        for (const SpecProposal& p : by_partition[idx]) {
          resolver.add_candidate(owner, p.u, p.v, p.length, p.rank);
        }
        if (ready > clock) {
          // The superstep stalls until its partition's scan lands — the
          // straggler wait the ROADMAP names as the remaining headroom.
          if (obs::Profiler* prof = obs::Profiler::active()) {
            prof->chain(static_cast<int>(ready_owner),
                        owner_lane[ready_owner], "straggler-scan",
                        to_ps(ready - clock));
          }
        }
        clock = std::max(clock, ready);
        ++supersteps;
        drain_to_fixpoint(&clock);
      }
      // Trailing candidate-free partitions still cost scan time.
      {
        const unsigned slowest = static_cast<unsigned>(std::distance(
            owner_busy.begin(),
            std::max_element(owner_busy.begin(), owner_busy.end())));
        const double tail = std::max({clock, ready, scan_seconds}) - clock;
        if (tail > 0.0) {
          if (obs::Profiler* prof = obs::Profiler::active()) {
            prof->chain(static_cast<int>(slowest), owner_lane[slowest],
                        "straggler-scan", to_ps(tail));
          }
        }
      }
      clock = std::max({clock, ready, scan_seconds});

      result.reduce_rounds = resolver.rounds();
      result.reduce_conflicts = conflicts_total;
      result.reduce_supersteps = supersteps;
      result.accepted_edges = resolver.graph().edge_count() / 2;
      c_spec_rounds.add(static_cast<std::int64_t>(resolver.rounds()));
      c_spec_conflicts.add(static_cast<std::int64_t>(conflicts_total));
      c_spec_proposals.add(static_cast<std::int64_t>(proposals_total));
      c_spec_supersteps.add(static_cast<std::int64_t>(supersteps));
      merged.import_edges(resolver.graph().edges());

      for (auto& node : nodes) {
        net_lane[node.id] = net.modeled_seconds(node.id);
      }
      phase.modeled_seconds = clock + net.modeled_seconds(0);
      if (obs::Profiler* prof = obs::Profiler::active()) {
        // Proposal gathers and commit broadcasts all funnel through the
        // master's engines; their exposed time is the incast wait.
        prof->chain(0, "network", "incast-wait",
                    to_ps(net.modeled_seconds(0)));
      }
      phase.resumed = parts_total.load() > 0 &&
                      parts_restored.load() == parts_total.load();
    } else {
      // Fingerprint-BSP reduce (paper IV-D): one superstep per length,
      // descending. All nodes scan their fingerprint slice of that length
      // in parallel and emit raw candidates with their matching
      // fingerprints; the master stable-merges them back into the exact
      // single-node offer order (equal fingerprints live in exactly one
      // bucket, so a stable sort by fingerprint is a faithful merge),
      // resolves them greedily and (conceptually) broadcasts the updated
      // out-degree bit-vector.
      std::vector<unsigned> real_lengths;
      for (const unsigned key : lengths) {
        const unsigned l = core::key_length(key, config.node_count);
        if (real_lengths.empty() || real_lengths.back() != l) {
          real_lengths.push_back(l);
        }
      }

      // The superstep's bit-vector broadcast completes when the slowest
      // pair has exchanged it — with racks, that is the inter-rack path
      // between the first and last node.
      const double broadcast_seconds = transfer_seconds(
          topo, 0, config.node_count - 1,
          (static_cast<std::uint64_t>(result.read_count) * 2 + 7) / 8);

      struct Proposal {
        gpu::Key128 fp;
        graph::VertexId u = 0;
        graph::VertexId v = 0;
      };

      double reduce_modeled = 0.0;
      for (auto it = real_lengths.rbegin(); it != real_lengths.rend();
           ++it) {
        const unsigned l = *it;
        std::vector<std::vector<Proposal>> proposals(config.node_count);
        std::vector<double> node_t_o(config.node_count, 0.0);
        std::vector<const char*> node_lane(config.node_count, "host");

        for_each_node(nodes, [&](NodeContext& node) {
          const unsigned key =
              core::partition_key(l, node.id, config.node_count);
          const auto part_it =
              std::find_if(node.sorted.begin(), node.sorted.end(),
                           [key](const auto& p) { return p.length == key; });
          if (part_it == node.sorted.end()) return;

          io::FaultInjector::ScopedNode node_scope(
              static_cast<int>(node.id));
          if (io::FaultInjector* injector = io::FaultInjector::active()) {
            injector->on_node_op(node.id, reduce_ck_key(key));
          }

          const auto io_before = node.io.snapshot();
          const double dev_before = node.device->modeled_seconds();
          core::ReduceOptions options;
          options.streamed = config.streamed;
          auto& mine = proposals[node.id];
          options.candidate_sink = [&mine](graph::VertexId u,
                                           graph::VertexId v, std::uint16_t,
                                           const gpu::Key128& fp) {
            mine.push_back(Proposal{fp, u, v});
          };
          graph::StringGraph scratch(0);  // unused in sink mode
          const core::PartitionReduceStats stats =
              core::reduce_partition(node.ws, *part_it, scratch, options);
          node.did_work = true;
          const auto io_after = node.io.snapshot();
          const double disk_t =
              static_cast<double>(io_after.bytes_read -
                                  io_before.bytes_read +
                                  io_after.bytes_written -
                                  io_before.bytes_written) /
              disk_bw;
          const double dev_t =
              (node.device->modeled_seconds() - dev_before) *
              config.machine.time_scale;
          const double host_t =
              static_cast<double>(stats.host_bytes) / host_bw;
          host_lane[node.id] += host_t;
          h_scan.record(to_ps(disk_t + dev_t + host_t));
          node_t_o[node.id] = streamed
                                  ? std::max({disk_t, dev_t, host_t})
                                  : disk_t + dev_t + host_t;
          node_lane[node.id] = dominant_lane(dev_t, disk_t, host_t);
          c_partitions.add(1);
        });

        // Master: merge per-bucket candidate streams back into global
        // fingerprint order (stable — in-bucket order is preserved) and
        // resolve greedily, exactly as the single-node reduce would.
        std::vector<Proposal> all;
        for (const auto& p : proposals) {
          all.insert(all.end(), p.begin(), p.end());
        }
        std::stable_sort(all.begin(), all.end(),
                         [](const Proposal& a, const Proposal& b) {
                           return a.fp < b.fp;
                         });
        for (const Proposal& p : all) {
          ++result.candidate_edges;
          if (merged.try_add_edge(p.u, p.v,
                                  static_cast<std::uint16_t>(l))) {
            ++result.accepted_edges;
          }
        }

        const auto slowest_it =
            std::max_element(node_t_o.begin(), node_t_o.end());
        const auto slowest = static_cast<unsigned>(
            std::distance(node_t_o.begin(), slowest_it));
        if (obs::Profiler* prof = obs::Profiler::active()) {
          prof->chain(static_cast<int>(slowest), node_lane[slowest],
                      "straggler-scan", to_ps(*slowest_it));
          prof->chain(0, "host", "graph-insert",
                      to_ps(static_cast<double>(all.size()) *
                            config.graph_insert_seconds));
          if (config.node_count > 1) {
            prof->chain(0, "network", "broadcast",
                        to_ps(broadcast_seconds));
          }
        }
        reduce_modeled +=
            *slowest_it +
            static_cast<double>(all.size()) * config.graph_insert_seconds +
            (config.node_count > 1 ? broadcast_seconds : 0.0);
      }
      phase.modeled_seconds = reduce_modeled;
    }

    if (config.work_dir.empty()) {
      for (const auto& node : nodes) core::remove_sorted_files(node.sorted);
    }
    phase.wall_seconds = wall.seconds();
    double dev_max = 0.0, disk_max = 0.0, host_max = 0.0;
    for (auto& node : nodes) {
      const auto io_now = node.io.snapshot();
      const double dev =
          (node.device->modeled_seconds() - node.device_mark) *
          config.machine.time_scale;
      const double disk =
          static_cast<double>(io_now.bytes_read - node.io_mark.bytes_read +
                              io_now.bytes_written -
                              node.io_mark.bytes_written) /
          disk_bw;
      dev_max = std::max(dev_max, dev);
      disk_max = std::max(disk_max, disk);
      host_max = std::max(host_max, host_lane[node.id]);
      phase.disk_bytes_read += io_now.bytes_read - node.io_mark.bytes_read;
      phase.disk_bytes_written +=
          io_now.bytes_written - node.io_mark.bytes_written;
      phase.peak_host_bytes =
          std::max(phase.peak_host_bytes, node.host.peak());
      phase.peak_device_bytes =
          std::max(phase.peak_device_bytes, node.device->memory().peak());
      NodePhaseBreakdown& b = breakdown[node.id];
      b.disk_seconds = disk;
      b.device_seconds = dev;
      b.host_seconds = host_lane[node.id];
      b.network_seconds = net_lane[node.id];
    }
    phase.device_seconds = dev_max;
    phase.disk_seconds = disk_max;
    phase.host_seconds = host_max;
    phase.overlap_efficiency =
        phase.modeled_seconds > 0.0
            ? (dev_max + disk_max + host_max) / phase.modeled_seconds
            : 1.0;
    if (phase.resumed) ++result.phases_resumed;
    marks.finish(phase);
    trace_cluster_phase(cluster_clock, phase, breakdown, streamed);
    cluster_clock += phase.modeled_seconds;
    result.stats.add(std::move(phase));
    result.per_node.push_back(std::move(breakdown));

    net.reset_counters();
    for (auto& node : nodes) {
      node.mark();
      node.host.reset_peak();
      node.device->memory().reset_peak();
    }
  }

  // ---- compress (node 0 holds or gathers the merged graph) -----------------
  {
    for (auto& node : nodes) {
      net.register_handler(node.id, kGatherEdges,
                           [&node](unsigned, std::span<const std::byte>) {
                             Payload reply;
                             if (node.graph == nullptr) return reply;
                             for (const graph::Edge& e :
                                  node.graph->edges()) {
                               put(reply, e);
                             }
                             return reply;
                           });
    }

    util::WallTimer wall;
    const MetricsMark marks = MetricsMark::take();
    if (obs::Profiler* prof = obs::Profiler::active()) {
      prof->begin_phase("compress", to_ps(cluster_clock));
    }
    if (config.reduce_strategy == ReduceStrategy::kLengthToken &&
        config.graph == core::GraphMode::kGreedy) {
      const obs::Profiler::EdgeHint hint(obs::ProfEdgeKind::kGather);
      for (unsigned i = 0; i < config.node_count; ++i) {
        const Payload reply = net.request(0, i, kGatherEdges, {});
        std::vector<graph::Edge> edges(reply.size() / sizeof(graph::Edge));
        if (edges.empty()) continue;  // an empty reply's data() may be null
        std::memcpy(edges.data(), reply.data(),
                    edges.size() * sizeof(graph::Edge));
        merged.import_edges(edges);
      }
    }

    core::CompressOptions options;
    options.include_singletons = config.include_singletons;
    const core::CompressResult compressed = core::run_compress_phase(
        nodes[0].ws, merged, fastq, output_fasta, options);
    result.contigs = compressed.stats;

    util::PhaseStats phase;
    phase.name = "compress";
    phase.wall_seconds = wall.seconds();
    std::vector<NodePhaseBreakdown> breakdown(config.node_count);
    for (auto& node : nodes) {
      const auto io_now = node.io.snapshot();
      NodePhaseBreakdown& b = breakdown[node.id];
      b.disk_seconds =
          static_cast<double>(io_now.bytes_read - node.io_mark.bytes_read +
                              io_now.bytes_written -
                              node.io_mark.bytes_written) /
          disk_bw;
      b.device_seconds =
          (node.device->modeled_seconds() - node.device_mark) *
          config.machine.time_scale;
      b.network_seconds = net.modeled_seconds(node.id);
      phase.disk_bytes_read += io_now.bytes_read - node.io_mark.bytes_read;
      phase.disk_bytes_written +=
          io_now.bytes_written - node.io_mark.bytes_written;
      phase.peak_host_bytes =
          std::max(phase.peak_host_bytes, node.host.peak());
      phase.peak_device_bytes =
          std::max(phase.peak_device_bytes, node.device->memory().peak());
    }
    phase.disk_bytes_read +=
        static_cast<std::uint64_t>(fastq_bytes) * 2;  // placement re-stream
    phase.device_seconds = breakdown[0].device_seconds;
    phase.disk_seconds = breakdown[0].disk_seconds +
                         fastq_bytes * 2 / disk_bw;
    phase.modeled_seconds = breakdown[0].total() + fastq_bytes * 2 / disk_bw;
    marks.finish(phase);
    if (obs::Profiler* prof = obs::Profiler::active()) {
      // Everything funnels through node 0: the edge gather's incast, the
      // compression itself, then the placement re-stream of the input.
      prof->chain(0, "network", "gather-incast",
                  to_ps(breakdown[0].network_seconds));
      prof->chain(0, "device", "compress",
                  to_ps(breakdown[0].device_seconds));
      prof->chain(0, "disk", "compress", to_ps(breakdown[0].disk_seconds));
      prof->chain(0, "host", "compress", to_ps(breakdown[0].host_seconds));
      prof->chain(-1, "disk", "input-restream",
                  to_ps(fastq_bytes * 2 / disk_bw));
    }
    trace_cluster_phase(cluster_clock, phase, breakdown,
                        /*streamed=*/false);
    cluster_clock += phase.modeled_seconds;
    result.stats.add(std::move(phase));
    result.per_node.push_back(std::move(breakdown));
    net.reset_counters();
  }

  for (auto& node : nodes) {
    node.sample_dir();
    result.peak_workspace_bytes += node.dir_high_water;
  }

  LOG_INFO << "distributed: " << result.read_count << " reads on "
           << config.node_count << " nodes, " << result.accepted_edges
           << " edges"
           << (result.phases_resumed > 0
                   ? " (" + std::to_string(result.phases_resumed) +
                         " phase(s) resumed)"
                   : "");
  return result;
}

}  // namespace lasagna::dist
