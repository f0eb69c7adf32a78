// Benchmark program: generates a workload's input, runs one assembly (plain
// or traced), or scores contigs against the reference. Every subcommand
// prints exactly one JSON object on stdout; perfbench/run.py runs one
// assembly per child process so that CPU time and peak RSS cover that
// assembly alone.
//
//   lasagna_perf gen <hgenome|noisy> <seed> <dir>
//   lasagna_perf assemble <workload> <reads.fastq> <contigs.fasta>
//   lasagna_perf trace <workload> <reads.fastq> <contigs.fasta>
//   lasagna_perf eval <reference.txt> <contigs.fasta>
//   lasagna_perf facts
//
// The program only calls the layers' public entry points. Traced runs put a
// span around each call and read counters and histograms from
// obs::MetricsRegistry::global(); nothing inside the library is changed.
#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "dist/cluster.hpp"
#include "graph/transitive.hpp"
#include "io/tempdir.hpp"
#include "kernel/backend.hpp"
#include "kernel/cpu_features.hpp"
#include "obs/metrics.hpp"
#include "seq/datasets.hpp"
#include "seq/evaluate.hpp"
#include "seq/genome.hpp"
#include "seq/read_store.hpp"
#include "seq/simulator.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lasagna;

// Dataset and memory scale of the H.Genome workloads. H.Genome at this scale
// is ~38 k reads over a ~95 kb genome; against supermic_k20 at the same
// scale each length partition is about 1.7 host blocks, so the sort needs
// the same two disk passes per partition as the paper's Table III run.
constexpr double kHGenomeScale = 32768.0;
// reduced-noisy: 150 bp reads, 0.2% substitutions, 10% repeats, 30x.
constexpr std::uint64_t kNoisyGenome = 60000;
constexpr unsigned kNoisyReadLength = 150;
constexpr double kNoisyCoverage = 30.0;
constexpr double kNoisyErrorRate = 0.002;
constexpr double kNoisyRepeats = 0.10;
constexpr unsigned kNoisyMinOverlap = 75;
constexpr unsigned kDistNodes = 4;

// ---- output --------------------------------------------------------------

/// Flat JSON object writer: numbers and strings only, keys in insertion
/// order.
class JsonLine {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    add(key, buf);
  }
  void str(const std::string& key, const std::string& value) {
    add(key, "\"" + value + "\"");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// ---- workloads -------------------------------------------------------------

bool is_single_node(const std::string& workload) {
  return workload == "hgenome-k20" || workload == "hgenome-roomy" ||
         workload == "reduced-noisy";
}

core::AssemblyConfig single_node_config(const std::string& workload) {
  core::AssemblyConfig config;
  config.kernel_backend = "avx2";
  if (workload == "reduced-noisy") {
    config.min_overlap = kNoisyMinOverlap;
    config.graph = core::GraphMode::kReduced;
    return config;
  }
  config.machine = core::MachineConfig::supermic_k20(kHGenomeScale);
  config.min_overlap = seq::paper_dataset("H.Genome").min_overlap;
  if (workload == "hgenome-roomy") {
    config.machine.host_memory_bytes = 256ull << 20;
    config.machine.device_memory_bytes = 64ull << 20;
  }
  return config;
}

dist::ClusterConfig cluster_config() {
  dist::ClusterConfig config =
      dist::ClusterConfig::supermic(kDistNodes, kHGenomeScale);
  config.min_overlap = seq::paper_dataset("H.Genome").min_overlap;
  config.reduce_strategy = dist::ReduceStrategy::kSpeculative;
  config.streamed = true;
  return config;
}

int cmd_gen(const std::string& input, std::uint64_t seed,
            const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const std::filesystem::path fastq = dir / "reads.fastq";
  std::string reference;
  if (input == "hgenome") {
    seq::DatasetSpec spec = seq::paper_dataset("H.Genome", kHGenomeScale);
    spec.seed = seed;
    reference = seq::dataset_reference(spec);
    std::filesystem::rename(seq::materialize_dataset(spec, dir / "gen"),
                            fastq);
    std::filesystem::remove_all(dir / "gen");
  } else if (input == "noisy") {
    seq::GenomeSpec genome;
    genome.length = kNoisyGenome;
    genome.seed = seed;
    genome.repeat_fraction = kNoisyRepeats;
    reference = seq::generate_genome(genome);
    seq::SequencingSpec reads;
    reads.read_length = kNoisyReadLength;
    reads.coverage = kNoisyCoverage;
    reads.error_rate = kNoisyErrorRate;
    reads.seed = seed * 7919 + 17;
    seq::simulate_to_fastq(reference, reads, fastq);
  } else {
    std::fprintf(stderr, "unknown input %s\n", input.c_str());
    return 2;
  }
  std::ofstream(dir / "reference.txt") << reference;

  std::uint64_t reads = 0;
  std::uint64_t bases = 0;
  std::ifstream in(fastq);
  std::string line;
  for (std::uint64_t i = 0; std::getline(in, line); ++i) {
    if (i % 4 == 1) {
      ++reads;
      bases += line.size();
    }
  }
  JsonLine out;
  out.num("reads", static_cast<double>(reads));
  out.num("bases", static_cast<double>(bases));
  out.num("input_bytes",
          static_cast<double>(std::filesystem::file_size(fastq)));
  out.num("genome_bp", static_cast<double>(reference.size()));
  out.print();
  return 0;
}

// ---- untraced assembly ------------------------------------------------------

struct CpuClock {
  double user = 0.0;
  double sys = 0.0;
  static CpuClock now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {tv_seconds(ru.ru_utime), tv_seconds(ru.ru_stime)};
  }
};

void add_phases(JsonLine& out, const util::RunStats& stats) {
  for (const auto& phase : stats.phases()) {
    out.num("phase." + phase.name + ".wall_s", phase.wall_seconds);
    out.num("phase." + phase.name + ".modeled_s", phase.modeled_seconds);
  }
}

int cmd_assemble(const std::string& workload,
                 const std::filesystem::path& fastq,
                 const std::filesystem::path& fasta) {
  JsonLine out;
  const CpuClock cpu0 = CpuClock::now();
  const auto t0 = std::chrono::steady_clock::now();
  util::RunStats stats;
  std::string backend;
  if (is_single_node(workload)) {
    const core::AssemblyConfig config = single_node_config(workload);
    backend = std::string(kernel::resolve_backend(config.kernel_backend).name());
    core::Assembler assembler(config);
    stats = assembler.run(fastq, fasta).stats;
  } else {
    kernel::ScopedBackend pin(kernel::simulated_backend());
    backend = std::string(kernel::active_backend().name());
    stats = dist::run_distributed(fastq, fasta, cluster_config()).stats;
  }
  const double wall = seconds_since(t0);
  const CpuClock cpu1 = CpuClock::now();
  out.num("wall_s", wall);
  out.num("user_s", cpu1.user - cpu0.user);
  out.num("sys_s", cpu1.sys - cpu0.sys);
  out.num("modeled_s", stats.total_modeled_seconds());
  out.num("setup_s", wall - stats.total_wall_seconds());
  out.str("backend", backend);
  add_phases(out, stats);
  out.print();
  return 0;
}

// ---- traced assembly --------------------------------------------------------

constexpr std::array<const char*, 5> kHistograms = {
    "kernel.fingerprint.wall_ns", "kernel.match_bounds.wall_ns",
    "kernel.sort_pairs.wall_ns", "core.reduce.window_records",
    "dist.am.latency_ps"};

using Buckets = std::array<std::int64_t, obs::Histogram::kBuckets>;

/// Everything a span boundary samples: clocks and the registry.
struct Probe {
  std::chrono::steady_clock::time_point wall;
  CpuClock cpu;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::pair<std::int64_t, Buckets>> histograms;

  static Probe take() {
    Probe p;
    auto& registry = obs::MetricsRegistry::global();
    for (const auto& [name, value] : registry.counters_snapshot()) {
      p.counters[name] = value;
    }
    for (const char* name : kHistograms) {
      const obs::Histogram& h = registry.histogram(name);
      Buckets buckets{};
      for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
        buckets[b] = h.bucket_count(b);
      }
      p.histograms[name] = {h.sum(), buckets};
    }
    p.cpu = CpuClock::now();
    p.wall = std::chrono::steady_clock::now();
    return p;
  }
};

/// Registry and clock deltas between two probes.
struct Delta {
  double wall = 0.0;
  double user = 0.0;
  double sys = 0.0;
  const Probe* a = nullptr;
  const Probe* b = nullptr;

  Delta(const Probe& from, const Probe& to)
      : wall(std::chrono::duration<double>(to.wall - from.wall).count()),
        user(to.cpu.user - from.cpu.user),
        sys(to.cpu.sys - from.cpu.sys),
        a(&from),
        b(&to) {}

  [[nodiscard]] double counter(const std::string& name) const {
    const auto after = b->counters.find(name);
    if (after == b->counters.end()) return 0.0;
    const auto before = a->counters.find(name);
    const std::int64_t base =
        before == a->counters.end() ? 0 : before->second;
    return static_cast<double>(after->second - base);
  }

  /// Samples recorded into histogram `name` between the probes, rebuilt as
  /// a histogram of their own so the library's percentile estimate applies.
  void histogram(const std::string& name, obs::Histogram& out,
                 double& sum) const {
    const auto& [sum_a, buckets_a] = a->histograms.at(name);
    const auto& [sum_b, buckets_b] = b->histograms.at(name);
    sum = static_cast<double>(sum_b - sum_a);
    for (int bucket = 0; bucket < obs::Histogram::kBuckets; ++bucket) {
      for (std::int64_t n = buckets_b[bucket] - buckets_a[bucket]; n > 0;
           --n) {
        out.record(obs::Histogram::bucket_low(bucket));
      }
    }
  }
};

void emit_kernels(JsonLine& out, const Delta& total) {
  for (const char* kernel : {"fingerprint", "match_bounds", "sort_pairs"}) {
    obs::Histogram h;
    double sum_ns = 0.0;
    total.histogram(std::string("kernel.") + kernel + ".wall_ns", h, sum_ns);
    const std::string key = std::string("kernel.") + kernel;
    out.num(key + ".calls", static_cast<double>(h.count()));
    out.num(key + ".wall_s", sum_ns * 1e-9);
    out.num(key + ".p99_ms", static_cast<double>(h.percentile(99)) * 1e-6);
  }
}

void emit_common(JsonLine& out, const Delta& total, double input_bytes) {
  out.num("total.wall_s", total.wall);
  out.num("total.cpu_s", total.user + total.sys);
  emit_kernels(out, total);
  for (const char* name :
       {"launches", "kernel_ops", "transfer_bytes", "alloc_bytes"}) {
    out.num(std::string("gpu.") + name,
            total.counter(std::string("gpu.") + name));
  }
  const double read = total.counter("io.bytes_read");
  const double written = total.counter("io.bytes_written");
  out.num("io.read_gb", read * 1e-9);
  out.num("io.write_gb", written * 1e-9);
  out.num("io.read_ops", total.counter("io.read_ops"));
  out.num("io.write_ops", total.counter("io.write_ops"));
  out.num("io.amplification", (read + written) / input_bytes);
  out.num("util.pool.tasks", total.counter("pool.tasks_completed"));
  out.num("util.pool.busy_s", total.counter("pool.busy_ns") * 1e-9);
  out.num("util.pool.queue_depth_peak",
          static_cast<double>(obs::MetricsRegistry::global()
                                  .gauge("pool.queue_depth_peak")
                                  .value()));
  out.num("util.pool.cores_busy", (total.user + total.sys) / total.wall);
}

int trace_single_node(const std::string& workload,
                      const std::filesystem::path& fastq,
                      const std::filesystem::path& fasta) {
  const core::AssemblyConfig config = single_node_config(workload);
  const std::vector<std::filesystem::path> fastqs{fastq};
  const double input_bytes =
      static_cast<double>(std::filesystem::file_size(fastq));

  std::vector<std::pair<std::string, Probe>> spans;
  spans.emplace_back("start", Probe::take());
  const auto mark = [&spans](const char* phase) {
    spans.emplace_back(phase, Probe::take());
  };

  // Workspace exactly as core::Assembler::run builds it, minus
  // checkpointing.
  gpu::Device device(config.machine.gpu_profile,
                     config.machine.device_memory_bytes);
  kernel::ScopedBackend backend(
      kernel::resolve_backend(config.kernel_backend));
  util::MemoryTracker host("host", 0);
  io::IoStats io_stats;
  std::optional<io::ScopedTempDir> temp(std::in_place, "lasagna-run");
  core::Workspace ws{&device, &host, &io_stats, temp->path()};
  mark("setup");

  {
    seq::ReadBatchStream stream(fastq, 1 << 20);
    seq::ReadBatch batch;
    while (stream.next(batch)) {
    }
  }
  mark("load");

  core::MapOptions map_options;
  map_options.min_overlap = config.min_overlap;
  map_options.fingerprints = config.fingerprints;
  map_options.streamed = config.streamed_map;
  core::MapResult map = core::run_map_phase(ws, fastqs, map_options);
  mark("map");

  core::BlockGeometry geometry = core::BlockGeometry::from(config.machine);
  geometry.streamed = config.streamed_sort;
  const core::SortResult sorted = core::run_sort_phase(ws, map, geometry);
  mark("sort");

  core::ReduceOptions reduce_options;
  reduce_options.streamed = config.streamed_reduce;
  std::unique_ptr<graph::FullStringGraph> full;
  if (config.graph == core::GraphMode::kReduced) {
    const std::vector<std::uint32_t> lengths(map.read_lengths.begin(),
                                             map.read_lengths.end());
    full = std::make_unique<graph::FullStringGraph>(map.read_count, lengths);
    reduce_options.candidate_sink =
        [&full](graph::VertexId u, graph::VertexId v, std::uint16_t overlap,
                const gpu::Key128&) { full->add_edge(u, v, overlap); };
  }
  core::ReduceResult reduced =
      core::run_reduce_phase(ws, sorted, map.read_count, reduce_options);
  mark("reduce");

  std::uint64_t full_edges = 0;
  std::uint64_t removed = 0;
  if (full) {
    full_edges = full->edge_count();
    removed = full->reduce_parallel(util::ThreadPool::global());
    reduced.graph = std::make_unique<graph::StringGraph>(map.read_count);
    reduced.graph->import_edges(full->to_unitig_graph().edges());
    reduced.accepted_edges = reduced.graph->edge_count() / 2;
    full.reset();
    mark("reduction");
  }

  core::CompressOptions compress_options;
  compress_options.include_singletons = config.include_singletons;
  compress_options.min_contig_length = config.min_contig_length;
  compress_options.read_lengths = std::move(map.read_lengths);
  (void)core::run_compress_phase(ws, *reduced.graph, fastqs, fasta,
                                 compress_options);
  mark("compress");
  const std::uint64_t peak_device = device.memory().peak();
  temp.reset();
  mark("teardown");

  const Delta whole(spans.front().second, spans.back().second);
  JsonLine out;
  out.str("backend", std::string(kernel::active_backend().name()));
  emit_common(out, whole, input_bytes);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const Delta d(spans[i - 1].second, spans[i].second);
    const std::string key = "core." + spans[i].first;
    out.num(key + ".wall_s", d.wall);
    out.num(key + ".cpu_s", d.user + d.sys);
    out.num(key + ".sys_s", d.sys);
  }
  out.num("core.map.tuples", static_cast<double>(map.tuples_emitted));
  out.num("core.sort.records", static_cast<double>(sorted.records_sorted));
  out.num("core.sort.disk_passes", sorted.max_disk_passes);
  out.num("core.reduce.candidates",
          static_cast<double>(reduced.candidate_edges));
  out.num("core.reduce.accept_ratio",
          reduced.candidate_edges == 0
              ? 0.0
              : static_cast<double>(reduced.accepted_edges) /
                    static_cast<double>(reduced.candidate_edges));
  obs::Histogram windows;
  double unused = 0.0;
  whole.histogram("core.reduce.window_records", windows, unused);
  out.num("core.reduce.window_records_p50",
          static_cast<double>(windows.percentile(50)));
  obs::Histogram sort_kernel;
  double sort_ns = 0.0;
  whole.histogram("kernel.sort_pairs.wall_ns", sort_kernel, sort_ns);
  out.num("kernel.sort_pairs.mrec_per_s",
          sort_ns > 0.0 ? static_cast<double>(sorted.records_sorted) /
                              (sort_ns * 1e-9) * 1e-6
                        : 0.0);
  out.num("gpu.peak_device_mb", static_cast<double>(peak_device) / (1 << 20));
  out.num("graph.full_edges", static_cast<double>(full_edges));
  out.num("graph.removed_edges", static_cast<double>(removed));
  out.num("graph.unitig_edges", full_edges == 0
                                    ? 0.0
                                    : static_cast<double>(
                                          reduced.graph->edge_count()));
  out.print();
  return 0;
}

int trace_cluster(const std::filesystem::path& fastq,
                  const std::filesystem::path& fasta) {
  const double input_bytes =
      static_cast<double>(std::filesystem::file_size(fastq));
  kernel::ScopedBackend pin(kernel::simulated_backend());
  const Probe before = Probe::take();
  const dist::DistributedResult result =
      dist::run_distributed(fastq, fasta, cluster_config());
  const Probe after = Probe::take();
  const Delta total(before, after);

  JsonLine out;
  out.str("backend", std::string(kernel::active_backend().name()));
  emit_common(out, total, input_bytes);
  const auto& phases = result.stats.phases();
  std::uint64_t peak_device = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const std::string key = "dist." + phases[i].name;
    out.num(key + ".wall_s", phases[i].wall_seconds);
    out.num(key + ".modeled_s", phases[i].modeled_seconds);
    double max_lane = 0.0;
    double sum_lane = 0.0;
    const auto& nodes = result.per_node.at(i);
    for (const auto& node : nodes) {
      max_lane = std::max(max_lane, node.total());
      sum_lane += node.total();
    }
    out.num(key + ".straggler",
            sum_lane > 0.0 ? max_lane * static_cast<double>(nodes.size()) /
                                 sum_lane
                           : 0.0);
    peak_device = std::max(peak_device, phases[i].peak_device_bytes);
  }
  out.num("gpu.peak_device_mb", static_cast<double>(peak_device) / (1 << 20));
  out.num("dist.am.requests", total.counter("dist.am.requests"));
  out.num("dist.am.bytes", total.counter("dist.am.bytes"));
  obs::Histogram latency;
  double unused = 0.0;
  total.histogram("dist.am.latency_ps", latency, unused);
  out.num("dist.am.latency_p99_us",
          static_cast<double>(latency.percentile(99)) * 1e-6);
  out.num("dist.shuffle.wire_bytes", static_cast<double>(result.wire_bytes));
  out.num("dist.shuffle.compression_ratio", result.compression_ratio);
  out.num("dist.reduce.rounds", result.reduce_rounds);
  out.num("dist.reduce.supersteps", result.reduce_supersteps);
  out.num("dist.reduce.conflicts",
          static_cast<double>(result.reduce_conflicts));
  out.num("dist.reduce.proposals", total.counter("dist.reduce.proposals"));
  out.num("dist.peak_workspace_mb",
          static_cast<double>(result.peak_workspace_bytes) / (1 << 20));
  out.print();
  return 0;
}

// ---- evaluation and facts ---------------------------------------------------

int cmd_eval(const std::filesystem::path& reference_path,
             const std::filesystem::path& fasta) {
  std::ifstream in(reference_path);
  const std::string reference((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  const seq::AssemblyEvaluation e =
      seq::evaluate_assembly_file(reference, fasta.string());
  JsonLine out;
  out.num("genome_fraction_pct", e.genome_fraction * 100.0);
  out.num("n50_bp", static_cast<double>(e.n50));
  out.num("dup_ratio", e.duplication_ratio);
  out.num("misassemblies", static_cast<double>(e.misassembled));
  out.num("contigs", static_cast<double>(e.contigs));
  out.num("total_bases", static_cast<double>(e.total_bases));
  out.print();
  return 0;
}

int cmd_facts() {
  const kernel::CpuFeatures& features = kernel::cpu_features();
  JsonLine out;
  out.str("host_backend", std::string(kernel::resolve_backend("avx2").name()));
  out.num("cpu_avx2", features.avx2 ? 1 : 0);
  out.num("cpu_bmi2", features.bmi2 ? 1 : 0);
  out.num("hardware_threads", std::thread::hardware_concurrency());
  out.str("build_type", LASAGNA_PERF_BUILD_TYPE);
#ifdef NDEBUG
  out.num("ndebug", 1);
#else
  out.num("ndebug", 0);
#endif
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  util::set_log_level(util::LogLevel::kWarn);
  try {
    if (args.size() == 1 && args[0] == "facts") return cmd_facts();
    if (args.size() == 4 && args[0] == "gen") {
      return cmd_gen(args[1], std::stoull(args[2]), args[3]);
    }
    if (args.size() == 3 && args[0] == "eval") return cmd_eval(args[1], args[2]);
    if (args.size() == 4 && (args[0] == "assemble" || args[0] == "trace")) {
      const std::string& workload = args[1];
      if (!is_single_node(workload) && workload != "dist4-sim") {
        std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
        return 2;
      }
      if (args[0] == "assemble") return cmd_assemble(workload, args[2], args[3]);
      return is_single_node(workload)
                 ? trace_single_node(workload, args[2], args[3])
                 : trace_cluster(args[2], args[3]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lasagna_perf: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: lasagna_perf gen|assemble|trace|eval|facts ...\n");
  return 2;
}
