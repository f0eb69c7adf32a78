// Token-reduce delta sidecars: each records only the edges its partition
// added. A resumed run imports every restored delta into its owner's graph,
// so a run resumed with its whole reduce restored must spell the same
// contigs as the run that wrote the sidecars — on any node count, where
// each node owns many partitions.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "dist/cluster.hpp"
#include "io/fault_injector.hpp"
#include "io/tempdir.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"

namespace lasagna::dist {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TokenResume, FullyRestoredReduceKeepsTheContigs) {
  if (io::FaultInjector::active() != nullptr) {
    GTEST_SKIP() << "ambient injector installed via LASAGNA_FAULT_SPEC";
  }
  io::ScopedTempDir dir("lasagna-token-resume");
  seq::SequencingSpec spec;
  spec.read_length = 90;
  spec.coverage = 12.0;
  spec.seed = 92;
  seq::simulate_to_fastq(seq::random_genome(5000, 91), spec,
                         dir.file("reads.fq"));
  for (const unsigned nodes : {1u, 3u}) {
    const std::string tag = std::to_string(nodes) + "-nodes";
    ClusterConfig config = ClusterConfig::supermic(nodes, 4096.0);
    config.min_overlap = 55;
    config.machine.host_memory_bytes = 1 << 19;
    config.machine.device_memory_bytes = 1 << 16;
    config.work_dir = dir.path() / ("work-" + tag);
    const DistributedResult full = run_distributed(
        dir.file("reads.fq"), dir.file(tag + "-full.fa"), config);

    config.resume = true;
    const DistributedResult resumed = run_distributed(
        dir.file("reads.fq"), dir.file(tag + "-resumed.fa"), config);
    EXPECT_TRUE(resumed.stats.phase("reduce").resumed) << tag;
    EXPECT_EQ(resumed.accepted_edges, full.accepted_edges) << tag;
    EXPECT_EQ(slurp(dir.file(tag + "-resumed.fa")),
              slurp(dir.file(tag + "-full.fa")))
        << tag;
  }
}

}  // namespace
}  // namespace lasagna::dist
