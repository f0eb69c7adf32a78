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
/// state. `streamed` and the reduce strategy are deliberately absent — both
/// leave identical per-node files and outputs, so a sync run may resume a
/// streamed one and a speculative run a token one, and vice versa.
std::uint64_t hash_cluster_config(const ClusterConfig& config) {
  std::uint64_t h = kFnvOffset;
  h = fnv_u64(h, config.node_count);
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

/// Disk bytes read and written on `stats` since `mark`.
std::uint64_t moved(const io::IoStats& stats,
                    const io::IoStats::Snapshot& mark) {
  const auto now = stats.snapshot();
  return now.bytes_read - mark.bytes_read + now.bytes_written -
         mark.bytes_written;
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

  /// Lanes since the last mark: device kernels, `io` disk traffic and the
  /// host-stage bytes.
  [[nodiscard]] util::Lanes lanes(const util::LaneLedger& ledger) const {
    return ledger.price(device->modeled_seconds() - device_mark,
                        moved(io, io_mark), host_bytes);
  }

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
const char* dominant_lane(const util::Lanes& lanes) {
  if (lanes.device >= lanes.disk && lanes.device >= lanes.host) {
    return "device";
  }
  return lanes.disk >= lanes.host ? "disk" : "host";
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

/// The edges of `after` whose source has none in `before` — what one
/// partition added to a greedy graph. Both lists are in source order, as
/// StringGraph::edges() returns them, and greedy edges are never removed.
std::vector<graph::Edge> added_edges(const std::vector<graph::Edge>& before,
                                     const std::vector<graph::Edge>& after) {
  std::vector<graph::Edge> added;
  added.reserve(after.size() - before.size());
  auto b = before.begin();
  for (const graph::Edge& e : after) {
    while (b != before.end() && b->src < e.src) ++b;
    if (b == before.end() || b->src != e.src) added.push_back(e);
  }
  return added;
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

// ---- run state -----------------------------------------------------------

/// One node's map-section lanes, captured at the map/shuffle boundary; the
/// shuffle's overlap model needs them to compute its exposed cost.
struct MapLanes {
  /// The map's own lanes: device kernels, partition/scratch disk and the
  /// tuple-emission host stage.
  util::Lanes map;
  /// The push traffic that rode inside the map: stage disk (reads at the
  /// mapper, writes at the owner), wire-codec host cost (encode + decode)
  /// and the network lane.
  util::Lanes push;
};

/// Per-lane maxima over nodes, and the node whose cost binds (the first
/// node to reach the maximum).
struct NodeMax {
  util::Lanes max;
  double cost = 0.0;
  unsigned arg = 0;
  util::Lanes arg_lanes;  ///< the binding node's lanes

  void add(unsigned node, const util::Lanes& lanes, double node_cost) {
    if (node_cost > cost) {
      arg = node;
      arg_lanes = lanes;
    }
    cost = std::max(cost, node_cost);
    max.device = std::max(max.device, lanes.device);
    max.disk = std::max(max.disk, lanes.disk);
    max.host = std::max(max.host, lanes.host);
    max.network = std::max(max.network, lanes.network);
  }
};

NodePhaseBreakdown breakdown_of(const util::Lanes& lanes) {
  return NodePhaseBreakdown{lanes.disk, lanes.device, lanes.host,
                            lanes.network};
}

/// A phase between its start and ClusterRun::close_phase.
struct OpenPhase {
  explicit OpenPhase(std::string phase_name) : name(std::move(phase_name)) {}
  std::string name;
  util::WallTimer wall;
  MetricsMark marks = MetricsMark::take();
};

/// A phase's own modeled figures, handed to ClusterRun::close_phase.
struct PhaseCost {
  double modeled = 0.0;
  /// The phase's lane figures: device/disk/host become the reported lane
  /// seconds; all four lanes count as the work overlap efficiency divides
  /// by the modeled time.
  util::Lanes lanes;
  /// One node did the work (compress): the lanes chain in the trace and
  /// the overlap efficiency is 1 by definition.
  bool serial = false;
  bool resumed = false;
  /// Disk bytes the phase moved outside the nodes' own `io` counters.
  std::uint64_t extra_read = 0;
  std::uint64_t extra_written = 0;
};

/// Everything the phases of one distributed run share.
struct ClusterRun {
  ClusterRun(const std::filesystem::path& fastq_path,
             const ClusterConfig& cluster_config,
             const std::filesystem::path& root)
      : config(cluster_config),
        fastq(fastq_path),
        topo(effective_topology(config)),
        net(config.node_count, topo),
        ledger(config.machine.lane_ledger()),
        streamed(config.streamed),
        // Fusion needs the push shuffle overlapped with the map (streamed)
        // and no checkpoint staging to splice re-pushed blocks into (empty
        // work_dir); checkpointed and sync runs take the staged path.
        fused(streamed && config.fuse_shuffle && config.work_dir.empty()),
        geometry(core::BlockGeometry::from(config.machine)),
        nodes(config.node_count),
        map_lanes(config.node_count) {
    geometry.streamed = config.streamed;
    const std::uint64_t input_fp =
        core::CheckpointManager::fingerprint_inputs({fastq});
    const std::uint64_t config_hash = hash_cluster_config(config);
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
    fastq_bytes = static_cast<double>(std::filesystem::file_size(fastq));
  }

  OpenPhase open_phase(std::string name) {
    if (obs::Profiler* prof = obs::Profiler::active()) {
      prof->begin_phase(name, to_ps(clock));
    }
    return OpenPhase(std::move(name));
  }

  /// End-of-phase bookkeeping every phase shares: byte sums and memory
  /// peaks over the nodes, overlap efficiency, registry deltas, the
  /// profiler chain and trace spans, the cluster clock, and fresh marks
  /// for the next phase.
  void close_phase(OpenPhase& open, const PhaseCost& cost,
                   std::vector<NodePhaseBreakdown> breakdown,
                   const std::function<void(obs::Profiler&)>& chain = {}) {
    util::PhaseStats phase;
    phase.name = open.name;
    phase.wall_seconds = open.wall.seconds();
    phase.modeled_seconds = cost.modeled;
    phase.device_seconds = cost.lanes.device;
    phase.disk_seconds = cost.lanes.disk;
    phase.host_seconds = cost.lanes.host;
    phase.overlap_efficiency =
        cost.serial ? 1.0 : cost.lanes.overlap_efficiency(cost.modeled);
    phase.disk_bytes_read = cost.extra_read;
    phase.disk_bytes_written = cost.extra_written;
    for (auto& node : nodes) {
      const auto io_now = node.io.snapshot();
      phase.disk_bytes_read += io_now.bytes_read - node.io_mark.bytes_read;
      phase.disk_bytes_written +=
          io_now.bytes_written - node.io_mark.bytes_written;
      phase.peak_host_bytes =
          std::max(phase.peak_host_bytes, node.host.peak());
      phase.peak_device_bytes =
          std::max(phase.peak_device_bytes, node.device->memory().peak());
    }
    net.reset_counters();
    phase.resumed = cost.resumed;
    if (phase.resumed) ++result.phases_resumed;
    open.marks.finish(phase);
    if (obs::Profiler* prof = obs::Profiler::active(); prof && chain) {
      chain(*prof);
    }
    trace_cluster_phase(clock, phase, breakdown, streamed && !cost.serial);
    clock += phase.modeled_seconds;
    result.stats.add(std::move(phase));
    result.per_node.push_back(std::move(breakdown));
    for (auto& node : nodes) {
      node.mark();
      node.host.reset_peak();
      node.device->memory().reset_peak();
    }
  }

  /// Scan one sorted partition on its owner and price the scan on the
  /// node's lanes. Greedy scans insert into `graph`; sink-mode scans
  /// (`options.candidate_sink` set) pass nullptr. `record` runs inside the
  /// priced window, so a checkpoint sidecar it writes is charged to the
  /// scan like the scan's own disk traffic.
  util::Lanes scan_partition(
      NodeContext& node, const core::SortedPartition& part,
      graph::StringGraph* graph, core::ReduceOptions options,
      const std::function<void(const core::PartitionReduceStats&)>& record,
      double& host_lane) {
    const auto io_before = node.io.snapshot();
    const double dev_before = node.device->modeled_seconds();
    options.streamed = streamed;
    graph::StringGraph scratch(0);  // unused in sink mode
    const core::PartitionReduceStats stats = core::reduce_partition(
        node.ws, part, graph != nullptr ? *graph : scratch, options);
    node.did_work = true;
    c_partitions.add(1);
    record(stats);
    const util::Lanes step =
        ledger.price(node.device->modeled_seconds() - dev_before,
                     moved(node.io, io_before), stats.host_bytes);
    host_lane += step.host;
    h_scan.record(to_ps(step.sum()));
    return step;
  }

  const ClusterConfig& config;
  const std::filesystem::path& fastq;
  const ClusterTopology topo;
  Network net;
  const util::LaneLedger ledger;
  const bool streamed;
  const bool fused;
  core::BlockGeometry geometry;
  std::vector<NodeContext> nodes;
  std::vector<MapLanes> map_lanes;
  std::vector<std::uint32_t> read_lengths;  ///< reduced graph mode only
  double fastq_bytes = 0.0;
  double clock = 0.0;  ///< cumulative modeled time (trace base)
  DistributedResult result;

  // Registry series charged per chunk or per partition, looked up once.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& c_chunks = registry.counter("dist.shuffle.chunks");
  obs::Counter& c_stage_bytes = registry.counter("dist.shuffle.stage_bytes");
  obs::Counter& c_wire_bytes = registry.counter("dist.shuffle.wire_bytes");
  obs::Counter& c_logical_bytes =
      registry.counter("dist.shuffle.logical_bytes");
  obs::Counter& c_partitions = registry.counter("dist.reduce.partitions");
  obs::Histogram& h_scan =
      registry.histogram("dist.reduce.partition_scan_ps");
};

/// What a reducer charges beyond each node's own device/disk counters,
/// and the reduce phase's modeled figure.
struct ReduceTally {
  explicit ReduceTally(unsigned node_count)
      : host(node_count, 0.0), net(node_count, 0.0) {}
  std::vector<double> host;  ///< host-lane seconds per node
  std::vector<double> net;   ///< network-lane seconds per node
  double modeled = 0.0;
  bool resumed = false;
};

// ---- map (with overlapped push shuffle) ------------------------------------

/// Owners consume pushed chunks: fused runs feed them straight into
/// sort-run formation (ShuffleIngest); staged runs persist them into
/// per-(role, key, block) stage files. offset 0 truncates, so a re-pushed
/// block (crash recovery) is idempotent even when a different node re-maps
/// it.
void register_push_sinks(ClusterRun& run) {
  const bool fused = run.fused;
  for (auto& node : run.nodes) {
    const std::filesystem::path stage_dir = node.dir / "shuffle";
    std::filesystem::create_directories(stage_dir);
    if (fused) {
      // Ingest disk traffic (run writes) belongs to the shuffle lane;
      // its block sorts share the owner's device with map kernels.
      core::Workspace ingest_ws = node.ws;
      ingest_ws.io = &node.shuffle_io;
      ingest_ws.checkpoint = nullptr;
      node.ingest = std::make_unique<ShuffleIngest>(
          ingest_ws, run.geometry, node.dir / "sorted", &node.device_mutex);
    }
    run.net.register_handler(
        node.id, kPushChunk,
        [&node, stage_dir, fused](unsigned src,
                                  std::span<const std::byte> payload) {
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
                        hdr.role == 0 ? "sfx" : "pfx", hdr.key, hdr.block);
          const std::filesystem::path path = stage_dir / name;
          std::FILE* f =
              std::fopen(path.c_str(), hdr.offset == 0 ? "wb" : "ab");
          if (f == nullptr) {
            throw std::runtime_error("shuffle stage open failed: " +
                                     path.string());
          }
          const std::size_t n = logical.size();
          if (n > 0 && std::fwrite(logical.data(), 1, n, f) != n) {
            std::fclose(f);
            throw std::runtime_error("shuffle stage write failed: " +
                                     path.string());
          }
          std::fclose(f);
          if (n > 0) node.shuffle_io.add_write(n);
          return Payload{};
        });
    if (fused) {
      run.net.register_handler(
          node.id, kBlockDone,
          [&node](unsigned, std::span<const std::byte> payload) {
            std::size_t off = 0;
            node.ingest->block_done(get<std::uint32_t>(payload, off));
            return Payload{};
          });
    }
  }
}

/// Push one local partition file of block `block` to its owner in chunked
/// active messages.
void push_partition_file(ClusterRun& run, NodeContext& node,
                         std::uint8_t role, unsigned key, std::uint64_t block,
                         const std::filesystem::path& file) {
  const bool compress = run.config.compress_wire;
  const unsigned owner = owner_of(key, run.config.node_count);
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
    // Self-pushes never hit the wire; only remote chunks pay the encode
    // cost and earn the compression.
    const std::vector<std::byte> body =
        (owner != node.id && compress) ? codec::encode_chunk(chunk, phase)
                                       : codec::encode_raw(chunk);
    Payload payload;
    payload.reserve(sizeof(hdr) + body.size());
    put(payload, hdr);
    payload.insert(payload.end(), body.begin(), body.end());
    (void)run.net.request(node.id, owner, kPushChunk, payload);
    run.c_chunks.add(1);
    run.c_stage_bytes.add(static_cast<std::int64_t>(n));
    if (owner != node.id) {
      if (compress) {
        node.codec_bytes.fetch_add(n, std::memory_order_relaxed);
      }
      run.c_logical_bytes.add(static_cast<std::int64_t>(n));
      // Uncompressed chunks report their logical size: the codec tag is
      // framing, not traffic, and keeping raw runs at ratio exactly 1.0
      // makes the counter self-describing.
      run.c_wire_bytes.add(
          static_cast<std::int64_t>(compress ? body.size() : n));
    }
    offset += n;
    if (n < buffer.size()) break;
  }
}

// The master hands out input blocks on request; each node fingerprints its
// blocks and pushes the resulting per-key tuples to their owners in chunked
// active messages as each block completes — the shuffle's data motion rides
// inside the map phase instead of a later barrier.
void map_phase(ClusterRun& run) {
  const ClusterConfig& config = run.config;
  DistributedResult& result = run.result;
  const std::int64_t wire_mark = run.c_wire_bytes.value();
  const std::int64_t logical_mark = run.c_logical_bytes.value();
  OpenPhase open = run.open_phase("map");

  const std::uint64_t block_reads =
      config.node_count == 1
          ? std::max<std::uint64_t>(1, result.read_count)
          : std::max<std::uint64_t>(
                1, (result.read_count + config.node_count * 2 - 1) /
                       (config.node_count * 2));
  const std::uint64_t num_blocks =
      (result.read_count + block_reads - 1) / block_reads;

  // Blocks whose map + push already completed in a previous (crashed) run,
  // according to any node's manifest; the dispenser skips them and
  // effectively rebalances the unfinished blocks across live nodes.
  std::set<std::uint64_t> done_blocks;
  for (auto& node : run.nodes) {
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
  run.net.register_handler(
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
  register_push_sinks(run);

  std::atomic<std::uint64_t> fresh{0};
  for_each_node(run.nodes, [&](NodeContext& node) {
    io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
    for (;;) {
      const Payload reply = run.net.request(node.id, 0, kGetBlock, {});
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
      core::Workspace block_ws = node.ws;
      block_ws.dir = node.dir / ("block" + std::to_string(g));
      block_ws.checkpoint = nullptr;

      std::uint64_t tuples = 0;
      {
        const core::MapResult mapped = [&] {
          // Fused runs share each owner's device between map kernels and
          // ingest block sorts; hold our own device for the kernel burst
          // so a concurrent ingest sort cannot overcommit it.
          std::unique_lock<std::mutex> lock(node.device_mutex,
                                            std::defer_lock);
          if (run.fused) lock.lock();
          return core::run_map_phase(block_ws, run.fastq, options);
        }();
        node.host_bytes += mapped.host_bytes;
        tuples = mapped.tuples_emitted;
        for (const unsigned key : mapped.suffixes->lengths()) {
          push_partition_file(run, node, 0, key, g,
                              mapped.suffixes->path(key));
        }
        for (const unsigned key : mapped.prefixes->lengths()) {
          push_partition_file(run, node, 1, key, g,
                              mapped.prefixes->path(key));
        }
        if (run.fused) {
          // Every chunk of block g is delivered (synchronous AMs); tell
          // all owners so their ingest frontiers can advance.
          Payload done;
          put(done, static_cast<std::uint32_t>(g));
          for (unsigned i = 0; i < config.node_count; ++i) {
            (void)run.net.request(node.id, i, kBlockDone, done);
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
      run.registry.counter("dist.map.blocks").add(1);
      fresh.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const std::uint64_t fresh_blocks = fresh.load();

  if (run.fused) {
    // Map barrier fell: every chunk and completion marker is delivered.
    // Drain the ingest workers — their run writes and block sorts count as
    // map-section lane time, where they actually overlapped.
    for_each_node(run.nodes, [](NodeContext& node) {
      node.fused = node.ingest->finish();
      node.ingest.reset();
    });
  }

  // Capture the map-section lanes before close_phase resets the marks; the
  // shuffle phase needs them to price its overlapped data motion.
  NodeMax map_max;
  std::vector<NodePhaseBreakdown> breakdown(config.node_count);
  for (auto& node : run.nodes) {
    MapLanes& lanes = run.map_lanes[node.id];
    lanes.map = node.lanes(run.ledger);
    lanes.push.disk = run.ledger.disk(
        static_cast<double>(moved(node.shuffle_io, node.shuffle_mark)));
    lanes.push.host = run.ledger.host(static_cast<double>(
        node.codec_bytes.load(std::memory_order_relaxed)));
    lanes.push.network = run.net.modeled_seconds(node.id);
    map_max.add(node.id, lanes.map, lanes.map.cost(run.streamed));
    breakdown[node.id] = breakdown_of(lanes.map);
  }

  // Reading the shared input is part of the map cost; a resumed run only
  // pays for the blocks it actually re-mapped.
  const double input_factor =
      num_blocks == 0 ? 0.0
                      : static_cast<double>(fresh_blocks) /
                            static_cast<double>(num_blocks);
  const double input_bytes = run.fastq_bytes * 2.0 * input_factor;
  const double input_disk = run.ledger.disk(input_bytes / config.node_count);
  PhaseCost cost;
  cost.lanes = map_max.max;
  cost.lanes.disk = map_max.max.disk + input_disk;
  cost.modeled = map_max.cost + input_disk;
  cost.resumed = fresh_blocks == 0 && num_blocks > 0;
  cost.extra_read = static_cast<std::uint64_t>(input_bytes);
  const util::Lanes& bound = map_max.arg_lanes;
  const int bn = static_cast<int>(map_max.arg);
  run.close_phase(open, cost, std::move(breakdown), [&](obs::Profiler& prof) {
    // modeled = shared-input read + the binding node's map lanes — record
    // the decomposition as the phase's chain.
    prof.chain(-1, "disk", "input-read", to_ps(input_disk));
    if (run.streamed) {
      prof.chain(bn, dominant_lane(bound), "map-scan", to_ps(bound.max()));
    } else {
      prof.chain(bn, "device", "map-scan", to_ps(bound.device));
      prof.chain(bn, "disk", "map-scan", to_ps(bound.disk));
      prof.chain(bn, "host", "map-scan", to_ps(bound.host));
    }
  });

  result.wire_bytes =
      static_cast<std::uint64_t>(run.c_wire_bytes.value() - wire_mark);
  const std::uint64_t logical_pushed =
      static_cast<std::uint64_t>(run.c_logical_bytes.value() - logical_mark);
  result.compression_ratio =
      result.wire_bytes > 0 ? static_cast<double>(logical_pushed) /
                                  static_cast<double>(result.wire_bytes)
                            : 1.0;
  run.registry.gauge("dist.shuffle.compression_ratio_milli")
      .set_max(static_cast<std::int64_t>(result.compression_ratio * 1000.0));
  for (auto& node : run.nodes) node.sample_dir();
}

// ---- shuffle (adopt fused ingest results, or assemble stage files) ---------

/// Nothing was staged: the ingest already turned every owned partition
/// into sorted runs. Adopt its per-key results — keys with no suffix data
/// can never produce candidates, so their prefix runs are dropped (the
/// staged path drops them too).
void adopt_fused_partitions(NodeContext& node,
                            std::atomic<unsigned>& fresh_keys) {
  const std::filesystem::path stage_dir = node.dir / "shuffle";
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
    obs::MetricsRegistry::global().counter("dist.shuffle.keys_merged").add(1);
    fresh_keys.fetch_add(1, std::memory_order_relaxed);
  }
  node.sample_dir();
}

/// Concatenate the stage files present on disk into per-key partition
/// files, grouped by key and ordered by global block id: ascending-block
/// concatenation reproduces the single-node partition bytes exactly.
void assemble_staged_partitions(NodeContext& node,
                                std::atomic<unsigned>& fresh_keys) {
  const std::filesystem::path stage_dir = node.dir / "shuffle";
  std::map<unsigned, std::map<std::uint32_t, std::filesystem::path>>
      sfx_stage, pfx_stage;
  for (const auto& entry : std::filesystem::directory_iterator(stage_dir)) {
    const std::string name = entry.path().filename().string();
    char role[4] = {};
    unsigned key = 0, block = 0;
    if (std::sscanf(name.c_str(), "stage_%3[a-z]_%u_%u", role, &key,
                    &block) != 3) {
      continue;
    }
    (role[0] == 's' ? sfx_stage : pfx_stage)[key][block] = entry.path();
  }

  // Keys to own: those with suffix data (lengths with only prefixes can
  // never produce candidates — the single-node sort drops them too) plus
  // keys a previous run already merged.
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
      // consumed them (external_sort_file skips whole files before opening
      // its input). The write→record→delete ordering below guarantees one
      // of the two holds.
      char sorted_name[32];
      std::snprintf(sorted_name, sizeof(sorted_name), "sfx_%05u.sorted",
                    key);
      const bool sfx_sorted =
          node.checkpoint->has("sort:file:" + std::string(sorted_name));
      std::snprintf(sorted_name, sizeof(sorted_name), "pfx_%05u.sorted",
                    key);
      const bool pfx_sorted =
          node.checkpoint->has("sort:file:" + std::string(sorted_name));
      std::error_code ec;
      const bool merged_exist = std::filesystem::exists(merged_sfx, ec) &&
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
            const std::filesystem::path& out_path, std::uint64_t& hash) {
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
                out.write_bytes(std::span<const std::byte>(buffer.data(), n));
              }
            }
            if (node.checkpoint == nullptr) {
              // Without crash recovery to serve, a consumed stage file is
              // dead weight — drop it now so the workspace high-water mark
              // shrinks instead of doubling.
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
      // write → record → delete: the adopt branch above depends on the
      // merged files outliving the manifest entry.
      node.checkpoint->record(ck, {{"hash", hash}, {"bytes", merged_bytes}});
      std::error_code ec;
      for (const auto& [block, stage_path] : sfx_stage[key]) {
        std::filesystem::remove(stage_path, ec);
      }
      for (const auto& [block, stage_path] : pfx_stage[key]) {
        std::filesystem::remove(stage_path, ec);
      }
    }
    node.did_work = true;
    obs::MetricsRegistry::global().counter("dist.shuffle.keys_merged").add(1);
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
}

/// Returns every partition key, ascending.
std::vector<unsigned> shuffle_phase(ClusterRun& run) {
  OpenPhase open = run.open_phase("shuffle");
  std::atomic<unsigned> fresh_keys{0};
  for_each_node(run.nodes, [&](NodeContext& node) {
    io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
    if (run.fused) {
      adopt_fused_partitions(node, fresh_keys);
    } else {
      assemble_staged_partitions(node, fresh_keys);
    }
  });

  // The master collects the global key list from every owner (the one
  // piece of metadata the reduce schedule needs).
  for (auto& node : run.nodes) {
    run.net.register_handler(
        node.id, kGatherKeys, [&node](unsigned, std::span<const std::byte>) {
          Payload reply;
          for (const auto& [key, path] : node.owned_sfx) {
            put(reply, static_cast<std::uint32_t>(key));
          }
          return reply;
        });
  }
  std::vector<unsigned> lengths;
  for (unsigned i = 0; i < run.config.node_count; ++i) {
    const Payload reply = run.net.request(0, i, kGatherKeys, {});
    std::size_t off = 0;
    while (off < reply.size()) {
      lengths.push_back(get<std::uint32_t>(reply, off));
    }
  }
  std::sort(lengths.begin(), lengths.end());

  // Order-independent content fingerprint of the whole shuffle.
  std::map<unsigned, std::uint64_t> all_hashes;
  for (const auto& node : run.nodes) {
    for (const auto& [key, h] : node.merged_hash) all_hashes[key] = h;
    run.result.shuffle_bytes += node.shuffle_logical;
  }
  std::uint64_t fold = kFnvOffset;
  for (const auto& [key, h] : all_hashes) {
    fold = fnv_u64(fold, key);
    fold = fnv_u64(fold, h);
  }
  run.result.shuffle_hash = fold;

  // Streamed: the push traffic hides behind map compute; only the part that
  // outlasts it is exposed, plus the assembly section. Synchronous: both
  // sections run as barriers.
  NodeMax compute;  ///< map lanes alone (already charged)
  NodeMax overlap;  ///< map lanes + push traffic
  NodeMax sync1;    ///< push traffic as its own barrier section
  NodeMax sec2;     ///< partition assembly
  NodeMax work;     ///< the shuffle's own lanes over both sections
  std::vector<NodePhaseBreakdown> breakdown(run.config.node_count);
  PhaseCost cost;
  for (auto& node : run.nodes) {
    const MapLanes& lanes = run.map_lanes[node.id];
    util::Lanes assembly;
    assembly.disk = run.ledger.disk(
        static_cast<double>(moved(node.shuffle_io, node.shuffle_mark)));
    assembly.network = run.net.modeled_seconds(node.id);
    util::Lanes hidden = lanes.map;
    hidden += lanes.push;
    compute.add(node.id, lanes.map, lanes.map.max());
    overlap.add(node.id, hidden, hidden.max());
    sync1.add(node.id, lanes.push, lanes.push.sum());
    sec2.add(node.id, assembly, assembly.cost(run.streamed));
    util::Lanes total;
    total.disk = lanes.push.disk + assembly.disk;
    total.host = lanes.push.host;
    total.network = lanes.push.network + assembly.network;
    work.add(node.id, total, 0.0);
    breakdown[node.id] = breakdown_of(total);
    // Both sections' stage traffic: the map phase's byte totals only
    // covered node.io.
    const auto sh_now = node.shuffle_io.snapshot();
    cost.extra_read += sh_now.bytes_read;
    cost.extra_written += sh_now.bytes_written;
  }
  cost.modeled = run.streamed
                     ? std::max(0.0, overlap.cost - compute.cost) + sec2.cost
                     : sync1.cost + sec2.cost;
  // Work the shuffle was responsible for (disk motion, wire time, codec
  // cycles) over the time it actually exposed: >1 means the map hid it.
  cost.lanes = work.max;
  cost.resumed = fresh_keys.load() == 0 && !lengths.empty();
  run.close_phase(open, cost, std::move(breakdown), [&](obs::Profiler& prof) {
    const int an = static_cast<int>(sec2.arg);
    const util::Lanes& a = sec2.arg_lanes;
    if (run.streamed) {
      // Only the push time the map couldn't hide is exposed.
      prof.chain(static_cast<int>(overlap.arg), "network", "push-exposed",
                 to_ps(std::max(0.0, overlap.cost - compute.cost)));
      prof.chain(an, a.disk >= a.network ? "disk" : "network", "assembly",
                 to_ps(std::max(a.disk, a.network)));
    } else {
      const int sn = static_cast<int>(sync1.arg);
      const util::Lanes& p = sync1.arg_lanes;
      prof.chain(sn, "disk", "push-stage", to_ps(p.disk));
      prof.chain(sn, "network", "push-wire", to_ps(p.network));
      prof.chain(sn, "host", "push-codec", to_ps(p.host));
      prof.chain(an, "disk", "assembly", to_ps(a.disk));
      prof.chain(an, "network", "assembly", to_ps(a.network));
    }
  });
  return lengths;
}

// ---- sort ------------------------------------------------------------------

void sort_phase(ClusterRun& run, const std::vector<unsigned>& lengths) {
  OpenPhase open = run.open_phase("sort");
  for_each_node(run.nodes, [&](NodeContext& node) {
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
          injector->on_node_op(node.id, "sort:" + std::string(sfx_name));
        }
        node.did_work = true;
      }
      if (run.fused) {
        // The ingest already produced the level-1 runs; start straight at
        // the merge tree. Run cut points and the pairwise merge order match
        // the staged external sort, so the .sorted bytes are identical.
        ShuffleIngest::KeyResult& kr = node.fused.at(key);
        part.suffix_records =
            core::merge_sorted_runs(node.ws, std::move(kr.suffix.runs),
                                    part.suffix_file, run.geometry)
                .records;
        node.sample_dir();
        part.prefix_records =
            core::merge_sorted_runs(node.ws, std::move(kr.prefix.runs),
                                    part.prefix_file, run.geometry)
                .records;
      } else {
        part.suffix_records =
            core::external_sort_file(node.ws, raw_sfx, part.suffix_file,
                                     run.geometry)
                .records;
        node.sample_dir();
        part.prefix_records =
            core::external_sort_file(node.ws, node.owned_pfx.at(key),
                                     part.prefix_file, run.geometry)
                .records;
        std::error_code ec;
        std::filesystem::remove(raw_sfx, ec);
        std::filesystem::remove(node.owned_pfx.at(key), ec);
      }
      node.sorted.push_back(std::move(part));
    }
    node.sample_dir();
  });

  NodeMax sort_max;
  std::vector<NodePhaseBreakdown> breakdown(run.config.node_count);
  bool any_work = false;
  for (auto& node : run.nodes) {
    const util::Lanes lanes = node.lanes(run.ledger);
    sort_max.add(node.id, lanes, lanes.cost(run.streamed));
    breakdown[node.id] = breakdown_of(lanes);
    any_work = any_work || node.did_work;
  }
  PhaseCost cost;
  cost.modeled = sort_max.cost;
  cost.lanes = sort_max.max;
  cost.resumed = !any_work && !lengths.empty();
  run.close_phase(open, cost, std::move(breakdown), [&](obs::Profiler& prof) {
    const int sn = static_cast<int>(sort_max.arg);
    const util::Lanes& a = sort_max.arg_lanes;
    if (run.streamed) {
      prof.chain(sn, a.device >= a.disk ? "device" : "disk", "sort-merge",
                 to_ps(std::max(a.device, a.disk)));
    } else {
      prof.chain(sn, "device", "sort-merge", to_ps(a.device));
      prof.chain(sn, "disk", "sort-merge", to_ps(a.disk));
    }
  });
}

// ---- reduce: distributed transitive reduction (reduced graph mode) --------

/// One owner's contiguous vertex block in the distributed full graph.
struct OwnerBlock {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  ///< one past the last owned vertex
  std::vector<std::vector<graph::Edge>> adj;  ///< [v - begin]
  std::uint64_t received = 0;  ///< kGraphEdges arrivals (insert cost)
  /// Boundary adjacency fetched from other owners in stage 3; only vertices
  /// some owned edge points at are present.
  std::map<graph::VertexId, std::vector<graph::Edge>> halo;
  std::vector<std::vector<std::uint8_t>> transitive;  ///< [v - begin]
  std::vector<std::uint32_t> indeg;  ///< reduced-graph in-degree
  std::vector<graph::Edge> links;    ///< out-degree-1 candidates
  std::uint64_t full_edges = 0;      ///< directed, pre-sweep
  std::uint64_t removed = 0;
};

/// Vertex ids range-partitioned into contiguous blocks, one per node.
struct VertexBlocks {
  VertexBlocks(std::uint32_t read_count, unsigned node_count)
      : count(static_cast<std::uint64_t>(read_count) * 2),
        span(std::max<std::uint64_t>(1,
                                     (count + node_count - 1) / node_count)),
        nodes(node_count),
        blocks(node_count) {
    for (unsigned i = 0; i < node_count; ++i) {
      OwnerBlock& block = blocks[i];
      block.begin = std::min<std::uint64_t>(count, i * span);
      block.end = i + 1 == node_count
                      ? count
                      : std::min<std::uint64_t>(count, (i + 1) * span);
      block.adj.resize(block.end - block.begin);
      block.transitive.resize(block.end - block.begin);
      // Sized before any stage-4 link can arrive.
      block.indeg.assign(block.end - block.begin, 0);
    }
  }

  [[nodiscard]] unsigned owner(graph::VertexId v) const {
    return static_cast<unsigned>(std::min<std::uint64_t>(v / span, nodes - 1));
  }

  std::uint64_t count;
  std::uint64_t span;
  unsigned nodes;
  std::vector<OwnerBlock> blocks;
};

/// Handlers run serialized per destination node (the network's per-node
/// mutex), so plain fields are safe; the for_each_node barriers between
/// stages order the cross-stage reads.
void register_owner_handlers(ClusterRun& run, VertexBlocks& vb) {
  for (auto& node : run.nodes) {
    OwnerBlock& block = vb.blocks[node.id];
    run.net.register_handler(
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
    run.net.register_handler(
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
    run.net.register_handler(
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
    run.net.register_handler(
        node.id, kGatherUnitigs,
        [&block](unsigned, std::span<const std::byte>) {
          Payload reply;
          for (const graph::Edge& e : block.links) {
            if (block.indeg[e.dst - block.begin] == 1) put(reply, e);
          }
          return reply;
        });
  }
}

/// Send `items` to node `to` in chunks of at most kShuffleChunkBytes.
template <typename T>
void send_chunked(ClusterRun& run, unsigned from, unsigned to,
                  std::uint16_t type, const std::vector<T>& items) {
  const std::size_t per_chunk =
      std::max<std::size_t>(1, kShuffleChunkBytes / sizeof(T));
  for (std::size_t base = 0; base < items.size(); base += per_chunk) {
    const std::size_t count =
        std::min<std::size_t>(per_chunk, items.size() - base);
    Payload payload(count * sizeof(T));
    std::memcpy(payload.data(), items.data() + base, count * sizeof(T));
    (void)run.net.request(from, to, type, payload);
  }
}

/// Each owner's scan clock at the end of its partition scans.
struct ScanClocks {
  explicit ScanClocks(unsigned node_count)
      : busy(node_count, 0.0), lane(node_count, "host") {}

  /// The first owner with the latest clock.
  [[nodiscard]] unsigned slowest() const {
    return static_cast<unsigned>(std::distance(
        busy.begin(), std::max_element(busy.begin(), busy.end())));
  }

  std::vector<double> busy;
  /// Which lane dominates each owner's scan clock — straggler-scan slices
  /// on the critical path are attributed to it.
  std::vector<const char*> lane;
};

/// Stages 1+2: every node scans its owned partitions in parallel and routes
/// each candidate edge, in both twin directions, to the owner of its source
/// vertex. Candidates are routed only after a node finishes all of its
/// scans, so a crash mid-scan leaves no partial deliveries; resume
/// re-routes everything deterministically from the sidecars.
ScanClocks scan_and_route(ClusterRun& run, const VertexBlocks& vb,
                          ReduceTally& tally) {
  const unsigned node_count = run.config.node_count;
  ScanClocks clocks(node_count);
  std::atomic<std::uint64_t> cand_total{0};
  std::atomic<unsigned> parts_total{0};
  std::atomic<unsigned> parts_restored{0};
  for_each_node(run.nodes, [&](NodeContext& node) {
    util::LaneClock scan;
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

      core::ReduceOptions options;
      std::vector<graph::Edge> part_cands;
      options.candidate_sink = [&part_cands](graph::VertexId u,
                                             graph::VertexId v,
                                             std::uint16_t overlap,
                                             const gpu::Key128&) {
        part_cands.push_back(graph::Edge{u, v, overlap});
      };
      const util::Lanes step = run.scan_partition(
          node, part, nullptr, std::move(options),
          [&](const core::PartitionReduceStats& stats) {
            cand_total.fetch_add(stats.candidates,
                                 std::memory_order_relaxed);
            if (node.checkpoint != nullptr) {
              write_full_candidates(
                  node, l, std::span<const graph::Edge>(part_cands));
              node.checkpoint->record(full_cand_key(l),
                                      {{"candidates", stats.candidates}});
            }
            mine.insert(mine.end(), part_cands.begin(), part_cands.end());
          },
          tally.host[node.id]);
      scan.add(step, run.streamed);
    }
    clocks.busy[node.id] = scan.now(run.streamed);
    clocks.lane[node.id] = dominant_lane(scan.total);

    // Route: both twin directions travel to their source's owner, so every
    // owner sees exactly the directed edges the single-node
    // FullStringGraph::add_edge would have stored in its block.
    std::vector<std::vector<graph::Edge>> outbound(node_count);
    for (const graph::Edge& e : mine) {
      if (e.src == e.dst || e.dst == graph::complement_vertex(e.src)) {
        continue;  // add_edge's self/complement guard
      }
      outbound[vb.owner(e.src)].push_back(e);
      const graph::Edge twin{graph::complement_vertex(e.dst),
                             graph::complement_vertex(e.src), e.overlap};
      outbound[vb.owner(twin.src)].push_back(twin);
    }
    for (unsigned k = 0; k < node_count; ++k) {
      send_chunked(run, node.id, k, kGraphEdges, outbound[k]);
    }
  });
  run.result.candidate_edges = cand_total.load(std::memory_order_relaxed);
  tally.resumed = parts_total.load() > 0 &&
                  parts_restored.load() == parts_total.load();
  return clocks;
}

/// Stage 3: halo fetch + blocked transitive marking. Adjacency is immutable
/// for the whole barrier (concurrent reads only), which is the
/// byte-identity argument: every vertex's flags are the same pure function
/// FullStringGraph::reduce() computes.
void mark_transitive(ClusterRun& run, VertexBlocks& vb) {
  auto& c_halo = obs::MetricsRegistry::global().counter(
      "dist.reduce.halo_vertices");
  const std::vector<std::uint32_t>& read_lengths = run.read_lengths;
  auto length_of = [&read_lengths](graph::VertexId w) {
    return read_lengths[w >> 1];
  };
  for_each_node(run.nodes, [&](NodeContext& node) {
    OwnerBlock& block = vb.blocks[node.id];
    std::vector<std::vector<graph::VertexId>> wanted(run.config.node_count);
    for (const auto& adj : block.adj) {
      for (const graph::Edge& e : adj) {
        const unsigned owner = vb.owner(e.dst);
        if (owner != node.id) wanted[owner].push_back(e.dst);
      }
    }
    const std::uint64_t ids_per_chunk = std::max<std::uint64_t>(
        1, kShuffleChunkBytes / sizeof(graph::VertexId));
    for (unsigned k = 0; k < run.config.node_count; ++k) {
      auto& ids = wanted[k];
      if (ids.empty()) continue;
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      c_halo.add(static_cast<std::int64_t>(ids.size()));
      for (std::size_t base = 0; base < ids.size(); base += ids_per_chunk) {
        const std::size_t count =
            std::min<std::size_t>(ids_per_chunk, ids.size() - base);
        Payload payload(count * sizeof(graph::VertexId));
        std::memcpy(payload.data(), ids.data() + base,
                    count * sizeof(graph::VertexId));
        const Payload reply = run.net.request(node.id, k, kAdjFetch, payload);
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
    std::vector<std::uint8_t> mark(vb.count, 0);
    for (std::uint64_t v = block.begin; v < block.end; ++v) {
      graph::mark_transitive_edges(block.adj[v - block.begin], length_of(v),
                                   adjacency_of, length_of, mark,
                                   block.transitive[v - block.begin]);
    }
  });
}

/// Stage 4: sweep + unitig-link exchange. Receivers only mutate their own
/// indeg/links (serialized by the network's per-node handler mutex), never
/// adjacency, so the sweep and the exchange share one barrier.
void sweep_and_link(ClusterRun& run, VertexBlocks& vb) {
  for_each_node(run.nodes, [&](NodeContext& node) {
    OwnerBlock& block = vb.blocks[node.id];
    std::vector<std::vector<UnitigLink>> out(run.config.node_count);
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
        out[vb.owner(e.dst)].push_back(
            UnitigLink{e.src, e.dst, e.overlap, out_one});
      }
    }
    for (unsigned k = 0; k < run.config.node_count; ++k) {
      send_chunked(run, node.id, k, kUnitigLinks, out[k]);
    }
  });
}

// Distributed transitive reduction + contig generation (arXiv:2207.04350).
// Vertex ids are range-partitioned into contiguous blocks, one per node:
//
//   1. every node scans its owned partitions in parallel (no token — the
//      full graph keeps all candidates, so there is nothing to coordinate)
//      and routes each candidate edge, in both twin directions, to the
//      owner of its source vertex;
//   2. owners upsert arrivals into canonically sorted adjacency — insertion
//      is order-independent, so the per-owner union equals the single-node
//      FullStringGraph block for block;
//   3. each owner fetches the boundary (halo) adjacency its block's
//      out-edges point into and marks transitive edges against the
//      immutable pre-sweep state — the same pure per-vertex function the
//      sequential and thread-pool reductions compute;
//   4. owners sweep their blocks and send every surviving edge to its
//      destination's owner as a unitig link (dst in-degree counting; src
//      out-degree-1 links are chain candidates);
//   5. node 0 gathers the links that survived the in-degree-1 test and
//      replays them in ascending source order — exactly
//      FullStringGraph::to_unitig_graph()'s insertion order, so contigs are
//      byte-identical to the single-node reduced pipeline at every node
//      count.
void reduce_reduced_graph(ClusterRun& run, graph::StringGraph& merged,
                          ReduceTally& tally) {
  DistributedResult& result = run.result;
  VertexBlocks vb(result.read_count, run.config.node_count);
  register_owner_handlers(run, vb);
  const ScanClocks scans = scan_and_route(run, vb, tally);
  const unsigned scan_arg = scans.slowest();
  const double scan_max = scans.busy[scan_arg];
  mark_transitive(run, vb);
  sweep_and_link(run, vb);

  // Stage 5: master gathers + stitches. Replaying the surviving links in
  // ascending source order is exactly to_unitig_graph()'s insertion order
  // (each qualifying source contributes one edge), so the merged graph —
  // and therefore the contigs — match the single-node reduced pipeline
  // byte for byte.
  std::vector<graph::Edge> stitched;
  {
    const obs::Profiler::EdgeHint hint(obs::ProfEdgeKind::kGather);
    for (unsigned i = 0; i < run.config.node_count; ++i) {
      const Payload reply = run.net.request(0, i, kGatherUnitigs, {});
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
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("dist.reduce.unitig_links")
      .add(static_cast<std::int64_t>(stitched.size()));
  for (const OwnerBlock& block : vb.blocks) {
    result.full_edges += block.full_edges;
    result.transitive_removed += block.removed;
  }
  registry.counter("dist.reduce.full_edges")
      .add(static_cast<std::int64_t>(result.full_edges));
  registry.counter("dist.reduce.removed_edges")
      .add(static_cast<std::int64_t>(result.transitive_removed));

  // Model: the stages are barriers, so the phase is the sum of each stage's
  // slowest node — scan, insert (per arriving edge), mark (a host-lane pass
  // over the block's pre-sweep adjacency, the same bytes the single-node
  // reduction charges), and the boundary/link exchange on the network lane.
  double insert_max = 0.0, mark_max = 0.0, net_max = 0.0;
  unsigned insert_arg = 0, mark_arg = 0, net_arg = 0;
  for (unsigned i = 0; i < run.config.node_count; ++i) {
    const double insert_t = static_cast<double>(vb.blocks[i].received) *
                            run.config.graph_insert_seconds;
    const double mark_t = run.ledger.host(
        static_cast<double>(vb.blocks[i].full_edges) * 2 *
        sizeof(graph::Edge));
    tally.host[i] += mark_t;
    tally.net[i] = run.net.modeled_seconds(i);
    if (insert_t > insert_max) { insert_max = insert_t; insert_arg = i; }
    if (mark_t > mark_max) { mark_max = mark_t; mark_arg = i; }
    if (tally.net[i] > net_max) { net_max = tally.net[i]; net_arg = i; }
  }
  tally.modeled = scan_max + insert_max + mark_max + net_max;
  if (obs::Profiler* prof = obs::Profiler::active()) {
    prof->chain(static_cast<int>(scan_arg), scans.lane[scan_arg],
                "straggler-scan", to_ps(scan_max));
    prof->chain(static_cast<int>(insert_arg), "host", "graph-insert",
                to_ps(insert_max));
    prof->chain(static_cast<int>(mark_arg), "host", "transitive-mark",
                to_ps(mark_max));
    prof->chain(static_cast<int>(net_arg), "network", "boundary-exchange",
                to_ps(net_max));
  }
}

// ---- reduce: the length-ordered token (paper III-E3) -----------------------

void reduce_token(ClusterRun& run, const std::vector<unsigned>& lengths,
                  ReduceTally& tally) {
  const ClusterConfig& config = run.config;
  DistributedResult& result = run.result;
  for (auto& node : run.nodes) {
    node.graph = std::make_unique<graph::StringGraph>(result.read_count);
  }
  util::AtomicBitVector token(static_cast<std::size_t>(result.read_count) *
                              2);
  const std::vector<unsigned> descending(lengths.rbegin(), lengths.rend());

  // Restore the completed prefix (highest lengths first): import each
  // partition's edge delta into its owner's graph and take the token from
  // the last restored sidecar. An entry whose sidecar is missing or stale
  // ends the prefix — that partition re-runs cleanly.
  std::size_t restored = 0;
  unsigned previous_owner = UINT32_MAX;
  while (restored < descending.size()) {
    const unsigned l = descending[restored];
    NodeContext& node = run.nodes[owner_of(l, config.node_count)];
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

  // Event-driven model: overlap-finding parallel per owner, graph build
  // serialized by the token (paper III-E3). Restored partitions cost
  // nothing — that is the point of resuming.
  //
  // Streamed owners keep one cumulative clock per lane and are ready at the
  // max of the three — the prefetch of the next partition's disk reads and
  // device scans runs while the host lane (and the token wait) is still
  // busy on the current one. Synchronous owners chain every partition's
  // lanes end to end.
  std::vector<util::LaneClock> owners(config.node_count);
  obs::Counter& c_token_hops =
      obs::MetricsRegistry::global().counter("dist.token.hops");
  double token_time = 0.0;

  for (std::size_t idx = restored; idx < descending.size(); ++idx) {
    const unsigned l = descending[idx];
    NodeContext& node = run.nodes[owner_of(l, config.node_count)];
    const auto part_it =
        std::find_if(node.sorted.begin(), node.sorted.end(),
                     [l](const auto& p) { return p.length == l; });
    if (part_it == node.sorted.end()) continue;

    io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
    if (io::FaultInjector* injector = io::FaultInjector::active()) {
      injector->on_node_op(node.id, reduce_ck_key(l));
    }

    std::vector<graph::Edge> edges_before;
    if (node.checkpoint != nullptr) edges_before = node.graph->edges();
    node.graph->set_out_degree_bits(token);
    std::uint64_t candidates = 0;
    const util::Lanes step = run.scan_partition(
        node, *part_it, node.graph.get(), core::ReduceOptions{},
        [&](const core::PartitionReduceStats& stats) {
          token = node.graph->out_degree_bits();
          candidates = stats.candidates;
          result.candidate_edges += stats.candidates;
          result.accepted_edges += stats.accepted;
          if (node.checkpoint != nullptr) {
            write_reduce_sidecar(
                node, l, token,
                added_edges(edges_before, node.graph->edges()));
            node.checkpoint->record(reduce_ck_key(l),
                                    {{"candidates", stats.candidates},
                                     {"accepted", stats.accepted}});
          }
        },
        tally.host[node.id]);
    // Model: t_o from this partition's lane costs, t_g from the candidate
    // volume. Overlap-finding proceeds without the token.
    const double t_g =
        static_cast<double>(candidates) * config.graph_insert_seconds;
    const double busy = owners[node.id].add(step, run.streamed);
    double arrival = token_time;
    double hop = 0.0;
    if (previous_owner != node.id) {
      hop = transfer_seconds(run.topo,
                             previous_owner == UINT32_MAX ? 0 : previous_owner,
                             node.id, token.byte_size());
      arrival += hop;
      tally.net[node.id] += hop;
      c_token_hops.add(1);
    }
    const double start = std::max(busy, arrival);
    if (obs::Profiler* prof = obs::Profiler::active()) {
      // This partition's contribution to the event clock: the token hop,
      // the scan time the token had to wait out (the straggler), then the
      // serialized insert.
      prof->chain(static_cast<int>(node.id), "network", "token-hop",
                  to_ps(hop));
      prof->chain(static_cast<int>(node.id),
                  dominant_lane(run.streamed ? owners[node.id].total : step),
                  "straggler-scan", to_ps(start - arrival));
      prof->chain(static_cast<int>(node.id), "host", "graph-insert",
                  to_ps(t_g));
    }
    if (obs::Tracer* tracer = obs::Tracer::active()) {
      tracer->add_span(
          tracer->track("dist.token"), "l" + std::to_string(l), -1, 0,
          to_ps(run.clock + start), to_ps(t_g),
          {{"owner", node.id},
           {"candidates", static_cast<std::int64_t>(candidates)}});
    }
    token_time = start + t_g;
    previous_owner = node.id;
  }
  tally.modeled = token_time;  // event model, not max-node
  tally.resumed = restored == descending.size() && !descending.empty();
}

// ---- reduce: partitioned speculative greedy --------------------------------

struct SpecScans {
  /// Each partition's candidates (descending-length order), stamped with
  /// the owner's lane clock at scan completion (`avail`).
  std::vector<std::vector<SpecProposal>> by_partition;
  std::vector<double> avail;
  ScanClocks owners;
};

/// Parallel candidate scans, resumable per partition from candidate
/// sidecars (restore skips the scan's disk reads and device kernels).
/// Reconciliation pipelines over the rank frontier, so the superstep for
/// partition i can run as soon as partitions 0..i are scanned, while later
/// partitions are still scanning.
SpecScans scan_speculative(ClusterRun& run,
                           const std::vector<unsigned>& descending,
                           ReduceTally& tally) {
  const unsigned node_count = run.config.node_count;
  SpecScans scans{std::vector<std::vector<SpecProposal>>(descending.size()),
                  std::vector<double>(descending.size(), 0.0),
                  ScanClocks(node_count)};
  std::atomic<std::uint64_t> cand_total{0};
  std::atomic<unsigned> parts_total{0};
  std::atomic<unsigned> parts_restored{0};
  for_each_node(run.nodes, [&](NodeContext& node) {
    util::LaneClock scan;
    double busy = 0.0;
    for (std::size_t idx = 0; idx < descending.size(); ++idx) {
      const unsigned l = descending[idx];
      if (owner_of(l, node_count) != node.id) continue;
      const auto part_it =
          std::find_if(node.sorted.begin(), node.sorted.end(),
                       [l](const auto& p) { return p.length == l; });
      if (part_it == node.sorted.end()) continue;
      parts_total.fetch_add(1, std::memory_order_relaxed);
      auto& mine = scans.by_partition[idx];

      io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
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
          scans.avail[idx] = busy;  // restored partitions cost nothing
          continue;
        }
      }

      core::ReduceOptions options;
      std::uint64_t offer = 0;
      options.candidate_sink = [&mine, idx, &offer](graph::VertexId u,
                                                    graph::VertexId v,
                                                    std::uint16_t overlap,
                                                    const gpu::Key128&) {
        mine.push_back(SpecProposal{
            u, v, overlap, 0,
            (static_cast<std::uint64_t>(idx) << 40) | offer++});
      };
      const util::Lanes step = run.scan_partition(
          node, *part_it, nullptr, std::move(options),
          [&](const core::PartitionReduceStats& stats) {
            cand_total.fetch_add(stats.candidates,
                                 std::memory_order_relaxed);
            if (node.checkpoint != nullptr) {
              write_spec_candidates(node, l,
                                    std::span<const SpecProposal>(mine));
              node.checkpoint->record(spec_cand_key(l),
                                      {{"candidates", stats.candidates}});
            }
          },
          tally.host[node.id]);
      busy = scan.add(step, run.streamed);
      scans.avail[idx] = busy;
    }
    scans.owners.busy[node.id] = busy;
    scans.owners.lane[node.id] = dominant_lane(scan.total);
  });
  run.result.candidate_edges = cand_total.load(std::memory_order_relaxed);
  tally.resumed = parts_total.load() > 0 &&
                  parts_restored.load() == parts_total.load();
  return scans;
}

/// Partitioned speculative greedy (core::SpeculativeResolver).
///
/// Every node scans its owned partitions in parallel — there is no token to
/// wait for, so the t_o·p scan cost divides by n — and every candidate gets
/// a global rank (partition's position in the descending-length order, then
/// the canonical in-partition offer index). The resolver's
/// speculate/reconcile supersteps then rebuild exactly the sequential greedy
/// edge set over that rank order, which IS the token result: contigs are
/// byte-identical.
///
/// Modeled time: max over nodes of the scan lanes, plus per round (max over
/// dirty nodes of rescanned×t_g + proposals×t_g serial apply at the
/// master), plus the master's network lane — proposals gather and commit
/// deltas broadcast as real AM traffic, so incast at node 0 comes out of the
/// engine model.
void reduce_speculative(ClusterRun& run, const std::vector<unsigned>& lengths,
                        graph::StringGraph& merged, ReduceTally& tally) {
  const ClusterConfig& config = run.config;
  DistributedResult& result = run.result;
  std::vector<NodeContext>& nodes = run.nodes;
  const std::vector<unsigned> descending(lengths.rbegin(), lengths.rend());
  for (auto& node : nodes) {
    run.net.register_handler(
        node.id, kSpecProposals,
        [](unsigned, std::span<const std::byte>) { return Payload{}; });
    run.net.register_handler(
        node.id, kSpecCommit,
        [](unsigned, std::span<const std::byte>) { return Payload{}; });
  }
  const SpecScans scans = scan_speculative(run, descending, tally);
  const unsigned slowest = scans.owners.slowest();
  const double scan_seconds = scans.owners.busy[slowest];

  core::SpeculativeResolver resolver(result.read_count, config.node_count);

  // Resume: pre-commit the checkpointed committed set (a sound subset of
  // the sequential-greedy edge set) and replay reconciliation over all
  // candidates — see write_spec_committed.
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

  // Pipelined horizon reconciliation. Sequential greedy's decisions on a
  // rank prefix depend only on that prefix, so the master runs each
  // partition's candidates to a fixpoint (one *superstep*, one or more
  // rounds) as soon as that partition's scan lands — while later, shorter
  // partitions are still scanning. `ready` is the running max of the
  // scan-completion stamps over the rank frontier: a superstep cannot start
  // before its partition is scanned, but rounds for partition i overlap the
  // scans of partitions > i. This is what keeps the reconciliation off the
  // critical path: the token walk must *also* wait for each partition's
  // scan, so the speculative clock trails it only by the (probe-bound)
  // round costs that don't fit under the remaining scan time.
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
      // across nodes — the model takes the max) and gather proposals at the
      // master.
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
        (void)run.net.request(n, 0, kSpecProposals, payload);
      }

      const core::SpeculativeResolver::RoundReport report =
          resolver.reconcile(per_domain);
      conflicts_total += report.conflicts;
      proposals_total += report.proposals;

      // Broadcast the commit delta so every node's speculative bits can
      // incorporate it next round.
      Payload commit;
      for (const graph::Edge& e : report.delta) put(commit, e);
      {
        const obs::Profiler::EdgeHint hint(obs::ProfEdgeKind::kBroadcast);
        for (unsigned n = 1; n < config.node_count; ++n) {
          (void)run.net.request(0, n, kSpecCommit, commit);
        }
      }

      committed_log.insert(committed_log.end(), report.delta.begin(),
                           report.delta.end());
      if (nodes[0].checkpoint != nullptr) {
        write_spec_committed(nodes[0],
                             std::span<const graph::Edge>(committed_log));
        nodes[0].checkpoint->record(
            kSpecCommittedKey,
            {{"committed", static_cast<std::uint64_t>(committed_log.size())}});
      }

      // Reconciliation is probe-bound: the master rank-merges the proposal
      // streams and bit-tests each against the committed set; only the
      // committed survivors pay the full insert cost (every replica applies
      // the broadcast delta in parallel, so the delta is charged once, not
      // per node). This is the wall-breaker: the token walk pays t_g per
      // *candidate*, reconciliation pays t_g only per *accepted edge*.
      const double apply_seconds =
          static_cast<double>(report.proposals) * config.graph_probe_seconds +
          static_cast<double>(report.committed) * config.graph_insert_seconds;
      if (obs::Tracer* tracer = obs::Tracer::active()) {
        tracer->add_span(
            tracer->track("dist.spec"), "round" + std::to_string(report.round),
            -1, 0, to_ps(run.clock + *clock_io),
            to_ps(rescan_max + apply_seconds),
            {{"proposals", static_cast<std::int64_t>(report.proposals)},
             {"conflicts", static_cast<std::int64_t>(report.conflicts)},
             {"deferred", static_cast<std::int64_t>(report.deferred)}});
      }
      if (obs::Profiler* prof = obs::Profiler::active()) {
        // The round waits on the slowest dirty node's rescan (parallel
        // across nodes, max taken) — a straggler wait — then on the
        // master's serial merge/probe/insert, the true reconcile cost.
        prof->chain(static_cast<int>(rescan_arg), "host", "straggler-scan",
                    to_ps(rescan_max));
        prof->chain(0, "host", "reconcile", to_ps(apply_seconds));
      }
      *clock_io += rescan_max + apply_seconds;
    }
  };

  unsigned ready_owner = 0;  ///< owner whose scan stamp binds `ready`
  for (std::size_t idx = 0; idx < descending.size(); ++idx) {
    if (scans.avail[idx] > ready) {
      ready = scans.avail[idx];
      ready_owner = owner_of(descending[idx], config.node_count);
    }
    if (scans.by_partition[idx].empty()) continue;
    const unsigned owner = owner_of(descending[idx], config.node_count);
    for (const SpecProposal& p : scans.by_partition[idx]) {
      resolver.add_candidate(owner, p.u, p.v, p.length, p.rank);
    }
    if (ready > clock) {
      // The superstep stalls until its partition's scan lands — the
      // straggler wait the ROADMAP names as the remaining headroom.
      if (obs::Profiler* prof = obs::Profiler::active()) {
        prof->chain(static_cast<int>(ready_owner),
                    scans.owners.lane[ready_owner], "straggler-scan",
                    to_ps(ready - clock));
      }
    }
    clock = std::max(clock, ready);
    ++supersteps;
    drain_to_fixpoint(&clock);
  }
  // Trailing candidate-free partitions still cost scan time.
  const double tail = std::max({clock, ready, scan_seconds}) - clock;
  if (obs::Profiler* prof = obs::Profiler::active(); prof && tail > 0.0) {
    prof->chain(static_cast<int>(slowest), scans.owners.lane[slowest],
                "straggler-scan", to_ps(tail));
  }
  clock = std::max({clock, ready, scan_seconds});

  result.reduce_rounds = resolver.rounds();
  result.reduce_conflicts = conflicts_total;
  result.reduce_supersteps = supersteps;
  result.accepted_edges = resolver.graph().edge_count() / 2;
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("dist.reduce.rounds")
      .add(static_cast<std::int64_t>(resolver.rounds()));
  registry.counter("dist.reduce.conflicts")
      .add(static_cast<std::int64_t>(conflicts_total));
  registry.counter("dist.reduce.proposals")
      .add(static_cast<std::int64_t>(proposals_total));
  registry.counter("dist.reduce.supersteps")
      .add(static_cast<std::int64_t>(supersteps));
  merged.import_edges(resolver.graph().edges());

  for (auto& node : nodes) {
    tally.net[node.id] = run.net.modeled_seconds(node.id);
  }
  tally.modeled = clock + run.net.modeled_seconds(0);
  if (obs::Profiler* prof = obs::Profiler::active()) {
    // Proposal gathers and commit broadcasts all funnel through the
    // master's engines; their exposed time is the incast wait.
    prof->chain(0, "network", "incast-wait",
                to_ps(run.net.modeled_seconds(0)));
  }
}

/// Returns the merged graph the compress phase spells contigs from: the
/// reduced-graph and speculative reducers build it here; the token reducer
/// leaves its edge sets distributed for compress to gather.
graph::StringGraph reduce_phase(ClusterRun& run,
                                const std::vector<unsigned>& lengths) {
  graph::StringGraph merged(run.result.read_count);
  OpenPhase open = run.open_phase("reduce");
  ReduceTally tally(run.config.node_count);
  if (run.config.graph == core::GraphMode::kReduced) {
    reduce_reduced_graph(run, merged, tally);
  } else if (run.config.reduce_strategy == ReduceStrategy::kLengthToken) {
    reduce_token(run, lengths, tally);
  } else {
    reduce_speculative(run, lengths, merged, tally);
  }
  if (run.config.work_dir.empty()) {
    for (const auto& node : run.nodes) core::remove_sorted_files(node.sorted);
  }

  NodeMax reduce_max;
  std::vector<NodePhaseBreakdown> breakdown(run.config.node_count);
  for (auto& node : run.nodes) {
    util::Lanes lanes = node.lanes(run.ledger);
    lanes.host = tally.host[node.id];
    reduce_max.add(node.id, lanes, 0.0);
    lanes.network = tally.net[node.id];
    breakdown[node.id] = breakdown_of(lanes);
  }
  PhaseCost cost;
  cost.modeled = tally.modeled;
  cost.lanes = reduce_max.max;
  cost.resumed = tally.resumed;
  run.close_phase(open, cost, std::move(breakdown));
  return merged;
}

// ---- compress (node 0 holds or gathers the merged graph) -------------------

void compress_phase(ClusterRun& run, graph::StringGraph& merged,
                    const std::filesystem::path& output_fasta) {
  for (auto& node : run.nodes) {
    run.net.register_handler(node.id, kGatherEdges,
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
  OpenPhase open = run.open_phase("compress");
  if (run.config.reduce_strategy == ReduceStrategy::kLengthToken &&
      run.config.graph == core::GraphMode::kGreedy) {
    const obs::Profiler::EdgeHint hint(obs::ProfEdgeKind::kGather);
    for (unsigned i = 0; i < run.config.node_count; ++i) {
      const Payload reply = run.net.request(0, i, kGatherEdges, {});
      std::vector<graph::Edge> edges(reply.size() / sizeof(graph::Edge));
      if (edges.empty()) continue;  // an empty reply's data() may be null
      std::memcpy(edges.data(), reply.data(),
                  edges.size() * sizeof(graph::Edge));
      merged.import_edges(edges);
    }
  }

  core::CompressOptions options;
  options.include_singletons = run.config.include_singletons;
  const core::CompressResult compressed = core::run_compress_phase(
      run.nodes[0].ws, merged, run.fastq, output_fasta, options);
  run.result.contigs = compressed.stats;

  std::vector<NodePhaseBreakdown> breakdown(run.config.node_count);
  for (auto& node : run.nodes) {
    util::Lanes lanes = node.lanes(run.ledger);
    lanes.network = run.net.modeled_seconds(node.id);
    breakdown[node.id] = breakdown_of(lanes);
  }
  // Node 0 does the work, then re-streams the input for placement.
  const double restream = run.ledger.disk(run.fastq_bytes * 2);
  const NodePhaseBreakdown b0 = breakdown[0];
  PhaseCost cost;
  cost.modeled = b0.total() + restream;
  cost.lanes.device = b0.device_seconds;
  cost.lanes.disk = b0.disk_seconds + restream;
  cost.serial = true;
  cost.extra_read = static_cast<std::uint64_t>(run.fastq_bytes) * 2;
  run.close_phase(open, cost, std::move(breakdown), [&](obs::Profiler& prof) {
    // Everything funnels through node 0: the edge gather's incast, the
    // compression itself, then the placement re-stream of the input.
    prof.chain(0, "network", "gather-incast", to_ps(b0.network_seconds));
    prof.chain(0, "device", "compress", to_ps(b0.device_seconds));
    prof.chain(0, "disk", "compress", to_ps(b0.disk_seconds));
    prof.chain(0, "host", "compress", to_ps(b0.host_seconds));
    prof.chain(-1, "disk", "input-restream", to_ps(restream));
  });
}

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
  std::optional<io::ScopedTempDir> temp;
  std::filesystem::path root = config.work_dir;
  if (root.empty()) {
    temp.emplace("lasagna-cluster");
    root = temp->path();
  } else {
    std::filesystem::create_directories(root);
  }

  ClusterRun run(fastq, config, root);
  map_phase(run);
  const std::vector<unsigned> lengths = shuffle_phase(run);
  sort_phase(run, lengths);
  graph::StringGraph merged = reduce_phase(run, lengths);
  compress_phase(run, merged, output_fasta);

  DistributedResult& result = run.result;
  for (auto& node : run.nodes) {
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
  return std::move(result);
}

}  // namespace lasagna::dist
