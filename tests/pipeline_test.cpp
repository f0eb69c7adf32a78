#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "core/pipeline.hpp"
#include "io/fastq.hpp"
#include "io/tempdir.hpp"
#include "seq/dna.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"

namespace lasagna::core {
namespace {

/// Assemble a simulated dataset end to end and return (result, contigs,
/// genome).
struct EndToEnd {
  AssemblyResult result;
  std::vector<io::SequenceRecord> contigs;
  std::string genome;
};

EndToEnd assemble(std::uint64_t genome_len, double coverage,
                  unsigned read_len, unsigned min_overlap,
                  AssemblyConfig config = {}, double error_rate = 0.0,
                  std::uint64_t seed = 42) {
  io::ScopedTempDir dir("lasagna-e2e");
  EndToEnd out;
  out.genome = seq::random_genome(genome_len, seed);
  seq::SequencingSpec spec;
  spec.read_length = read_len;
  spec.coverage = coverage;
  spec.error_rate = error_rate;
  spec.seed = seed + 1;
  seq::simulate_to_fastq(out.genome, spec, dir.file("reads.fq"));

  config.min_overlap = min_overlap;
  Assembler assembler(config);
  out.result = assembler.run(dir.file("reads.fq"), dir.file("contigs.fa"));
  out.contigs = io::read_sequence_file(dir.file("contigs.fa"));
  return out;
}

bool contig_in_genome(const std::string& genome, const std::string& contig) {
  return genome.find(contig) != std::string::npos ||
         genome.find(seq::reverse_complement(contig)) != std::string::npos;
}

AssemblyConfig small_machine() {
  AssemblyConfig config;
  // Very small budgets force real multi-block external sorting even on
  // test-sized data.
  config.machine.host_memory_bytes = 1 << 18;    // 256 KiB
  config.machine.device_memory_bytes = 1 << 15;  // 32 KiB
  return config;
}

TEST(Pipeline, ContigsAreExactGenomeSubstrings) {
  const auto e2e = assemble(8000, 25.0, 100, 60, small_machine());
  ASSERT_GT(e2e.contigs.size(), 0u);
  EXPECT_EQ(e2e.result.false_positives, 0u);

  std::uint64_t assembled = 0;
  for (const auto& c : e2e.contigs) {
    EXPECT_TRUE(contig_in_genome(e2e.genome, c.bases))
        << "contig of length " << c.bases.size()
        << " is not a genome substring";
    assembled = std::max<std::uint64_t>(assembled, c.bases.size());
  }
  // Greedy string-graph assembly at 25x coverage must produce long contigs
  // (far longer than single reads).
  EXPECT_GT(e2e.result.contigs.n50, 300u);
  EXPECT_GT(assembled, 500u);
}

TEST(Pipeline, StatsCoverAllPhases) {
  const auto e2e = assemble(3000, 15.0, 80, 50, small_machine());
  for (const char* phase : {"load", "map", "sort", "reduce", "compress"}) {
    EXPECT_TRUE(e2e.result.stats.has_phase(phase)) << phase;
  }
  const auto& sort = e2e.result.stats.phase("sort");
  EXPECT_GT(sort.disk_bytes_read, 0u);
  EXPECT_GT(sort.disk_bytes_written, 0u);
  EXPECT_GT(sort.peak_device_bytes, 0u);
  EXPECT_GT(e2e.result.stats.total_modeled_seconds(), 0.0);
  EXPECT_GT(e2e.result.read_count, 0u);
  EXPECT_GT(e2e.result.tuples_emitted, 0u);
  EXPECT_EQ(e2e.result.records_sorted, e2e.result.tuples_emitted);
}

TEST(Pipeline, DeviceBudgetIsRespected) {
  const auto e2e = assemble(2000, 10.0, 80, 50, small_machine());
  (void)e2e;
  // The assertion is implicit: any allocation beyond 32 KiB of simulated
  // device memory throws CapacityError and the assembly fails.
  SUCCEED();
}

TEST(Pipeline, VerifyModeReportsZeroFalsePositivesWith128BitFingerprints) {
  auto config = small_machine();
  config.verify_overlaps = true;
  const auto e2e = assemble(4000, 20.0, 90, 55, config);
  EXPECT_GT(e2e.result.candidate_edges, 0u);
  EXPECT_EQ(e2e.result.false_positives, 0u)
      << "128-bit fingerprints must be collision-free on this corpus "
         "(paper IV-B)";
}

std::size_t sorted_file_count(const std::filesystem::path& work) {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(work / "sorted")) {
    n += entry.path().extension() == ".sorted" ? 1 : 0;
  }
  return n;
}

TEST(Pipeline, SortedRunsAreDroppedUnlessCheckpointed) {
  // Verify mode runs without a checkpoint even in a user work dir, so the
  // reduce phase removes the sorted runs it consumed; a checkpointed run
  // keeps them for resume.
  io::ScopedTempDir unchecked("lasagna-e2e-work");
  auto config = small_machine();
  config.work_dir = unchecked.path();
  config.verify_overlaps = true;
  assemble(3000, 15.0, 80, 50, config);
  EXPECT_EQ(sorted_file_count(unchecked.path()), 0u);

  io::ScopedTempDir checked("lasagna-e2e-work");
  config.work_dir = checked.path();
  config.verify_overlaps = false;
  assemble(3000, 15.0, 80, 50, config);
  EXPECT_GT(sorted_file_count(checked.path()), 0u);
}

TEST(Pipeline, GreedyGraphInvariant) {
  const auto e2e = assemble(4000, 20.0, 90, 55, small_machine());
  // Each accepted candidate stores an edge pair.
  EXPECT_EQ(e2e.result.graph_edges, 2 * e2e.result.accepted_edges);
}

TEST(Pipeline, SingletonsToggleChangesOutput) {
  auto with = small_machine();
  with.include_singletons = true;
  // Low coverage leaves isolated reads.
  const auto a = assemble(5000, 3.0, 80, 80 - 5, with, 0.0, 7);
  auto without = small_machine();
  without.include_singletons = false;
  const auto b = assemble(5000, 3.0, 80, 80 - 5, without, 0.0, 7);
  EXPECT_GT(a.contigs.size(), b.contigs.size());
}

TEST(Pipeline, SmallerMemorySameResult) {
  // Streaming geometry must not change assembly results: run the same
  // dataset with generous and with tiny budgets.
  auto big = AssemblyConfig{};
  big.machine.host_memory_bytes = 64 << 20;
  big.machine.device_memory_bytes = 8 << 20;
  const auto a = assemble(4000, 20.0, 90, 55, big);
  const auto b = assemble(4000, 20.0, 90, 55, small_machine());

  EXPECT_EQ(a.result.tuples_emitted, b.result.tuples_emitted);
  EXPECT_EQ(a.result.candidate_edges, b.result.candidate_edges);
  // Contig total length must match exactly: greedy choices are identical
  // because candidates arrive in the same per-length order.
  EXPECT_EQ(a.result.contigs.total_bases, b.result.contigs.total_bases);
  EXPECT_EQ(a.result.contigs.n50, b.result.contigs.n50);
}

TEST(Pipeline, HigherCoverageImprovesContiguity) {
  // Lander-Waterman flavour: at 2x coverage the expected read spacing (~50)
  // exceeds what a 60-base minimum overlap can bridge, so reads barely
  // chain; at 30x chains span many reads.
  auto cfg = small_machine();
  cfg.include_singletons = true;
  const auto low = assemble(6000, 2.0, 100, 60, cfg, 0.0, 3);
  const auto high = assemble(6000, 30.0, 100, 60, cfg, 0.0, 3);
  EXPECT_GT(high.result.contigs.max_length, low.result.contigs.max_length);
  EXPECT_GT(high.result.accepted_edges, low.result.accepted_edges);
}

TEST(Pipeline, SortDominatesRuntimeModel) {
  // Paper III-E: sorting takes > 50% of execution, map ~25%. Check the
  // *modeled* time ordering on a reasonably sized run.
  const auto e2e = assemble(20000, 30.0, 100, 63, small_machine());
  const auto& stats = e2e.result.stats;
  const double sort = stats.phase("sort").modeled_seconds;
  const double map = stats.phase("map").modeled_seconds;
  const double reduce = stats.phase("reduce").modeled_seconds;
  const double compress = stats.phase("compress").modeled_seconds;
  EXPECT_GT(sort, map);
  EXPECT_GT(map, compress);
  EXPECT_GT(sort, reduce);
}

TEST(ComputeN50, KnownValues) {
  EXPECT_EQ(compute_n50({}), 0u);
  EXPECT_EQ(compute_n50({5}), 5u);
  // total 100; descending 40, 30, 20, 10: 40+30 >= 50 -> N50 = 30.
  EXPECT_EQ(compute_n50({10, 20, 30, 40}), 30u);
  EXPECT_EQ(compute_n50({50, 50}), 50u);
}

}  // namespace
}  // namespace lasagna::core
