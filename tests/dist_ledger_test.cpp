// Pinned cluster ledger: the distributed driver's modeled numbers, exactly.
//
// Synchronous runs with static map blocks are a pure function of the input
// (see ClusterConfig::static_map_blocks), so every modeled lane second the
// cluster reports can be held to an exact value. Each cell below pins, for
// one {node count x reduce strategy x graph mode} point of a small
// simulated input: every phase's modeled/device/disk/host seconds and
// overlap efficiency, every per-node lane breakdown, the edge counts, the
// speculative-reduce round counters, the wire bytes, the shuffle hash and
// the contig FASTA. Any change to how a phase is priced — an operand
// reordered in a floating-point sum, a lane charged to the wrong node —
// changes a pinned bit.
//
// Doubles are written as hexadecimal literals so the pins are exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "dist/cluster.hpp"
#include "dist/fnv.hpp"
#include "io/fault_injector.hpp"
#include "io/tempdir.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"

namespace lasagna::dist {
namespace {

struct PhasePin {
  const char* name;
  double modeled;
  double device;
  double disk;
  double host;
  double overlap;
  std::vector<NodePhaseBreakdown> per_node;  ///< {disk, device, host, net}
};

struct CellPin {
  std::vector<PhasePin> phases;
  std::uint64_t candidate_edges;
  std::uint64_t accepted_edges;
  unsigned reduce_rounds;
  unsigned reduce_supersteps;
  std::uint64_t reduce_conflicts;
  std::uint64_t wire_bytes;
  std::uint64_t shuffle_hash;
  std::uint64_t contig_bytes;  ///< FASTA size
  std::uint64_t contig_hash;   ///< FNV-1a over the FASTA bytes
};

class ClusterLedger : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new io::ScopedTempDir("lasagna-ledger");
    seq::SequencingSpec spec;
    spec.read_length = 85;
    spec.coverage = 12.0;
    spec.seed = 72;
    seq::simulate_to_fastq(seq::random_genome(4000, 71), spec,
                           dir_->file("reads.fq"));
  }

  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  void SetUp() override {
    if (io::FaultInjector::active() != nullptr) {
      GTEST_SKIP() << "ambient injector installed via LASAGNA_FAULT_SPEC";
    }
  }

  static ClusterConfig cluster(unsigned nodes, ReduceStrategy strategy,
                               core::GraphMode graph) {
    ClusterConfig config = ClusterConfig::supermic(nodes, 4096.0);
    config.min_overlap = 55;
    config.machine.host_memory_bytes = 1 << 19;
    config.machine.device_memory_bytes = 1 << 16;
    config.reduce_strategy = strategy;
    config.graph = graph;
    config.streamed = false;
    config.static_map_blocks = true;
    return config;
  }

  static void check(const CellPin& pin, const ClusterConfig& config,
                    const std::string& tag) {
    const std::filesystem::path out = dir_->file(tag + ".fa");
    const DistributedResult r =
        run_distributed(dir_->file("reads.fq"), out, config);

    const auto& phases = r.stats.phases();
    ASSERT_EQ(phases.size(), pin.phases.size()) << tag;
    ASSERT_EQ(r.per_node.size(), pin.phases.size()) << tag;
    for (std::size_t p = 0; p < pin.phases.size(); ++p) {
      const PhasePin& want = pin.phases[p];
      const util::PhaseStats& got = phases[p];
      const std::string where = tag + " " + want.name;
      EXPECT_EQ(got.name, want.name) << where;
      EXPECT_EQ(got.modeled_seconds, want.modeled) << where;
      EXPECT_EQ(got.device_seconds, want.device) << where;
      EXPECT_EQ(got.disk_seconds, want.disk) << where;
      EXPECT_EQ(got.host_seconds, want.host) << where;
      EXPECT_EQ(got.overlap_efficiency, want.overlap) << where;
      ASSERT_EQ(r.per_node[p].size(), want.per_node.size()) << where;
      for (std::size_t n = 0; n < want.per_node.size(); ++n) {
        const NodePhaseBreakdown& b = r.per_node[p][n];
        const NodePhaseBreakdown& w = want.per_node[n];
        const std::string node = where + " node" + std::to_string(n);
        EXPECT_EQ(b.disk_seconds, w.disk_seconds) << node;
        EXPECT_EQ(b.device_seconds, w.device_seconds) << node;
        EXPECT_EQ(b.host_seconds, w.host_seconds) << node;
        EXPECT_EQ(b.network_seconds, w.network_seconds) << node;
      }
    }
    EXPECT_EQ(r.candidate_edges, pin.candidate_edges) << tag;
    EXPECT_EQ(r.accepted_edges, pin.accepted_edges) << tag;
    EXPECT_EQ(r.reduce_rounds, pin.reduce_rounds) << tag;
    EXPECT_EQ(r.reduce_supersteps, pin.reduce_supersteps) << tag;
    EXPECT_EQ(r.reduce_conflicts, pin.reduce_conflicts) << tag;
    EXPECT_EQ(r.wire_bytes, pin.wire_bytes) << tag;
    EXPECT_EQ(r.shuffle_hash, pin.shuffle_hash) << tag;

    std::ifstream in(out, std::ios::binary);
    const std::string fasta((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(fasta.size(), pin.contig_bytes) << tag;
    EXPECT_EQ(fnv::fold_bytes(fnv::kOffset,
                              reinterpret_cast<const std::byte*>(fasta.data()),
                              fasta.size()),
              pin.contig_hash)
        << tag;
  }

  static io::ScopedTempDir* dir_;
};

io::ScopedTempDir* ClusterLedger::dir_ = nullptr;

// ---- pinned values -------------------------------------------------------
// clang-format off
const CellPin kOneNodeTokenGreedy = {
    {
        {"map", 0x1.661f86be94423p+4, 0x1.3214186bccf1fp-1, 0x1.e436a967f667p+3, 0x1.a9ce451cea9c7p+2, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+3, 0x1.3214186bccf1fp-1, 0x1.a9ce451cea9c7p+2, 0x0p+0},
         }},
        {"shuffle", 0x1.a9ce451cea9c7p+5, 0x0p+0, 0x1.a9ce451cea9c7p+5, 0x0p+0, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+5, 0x0p+0, 0x0p+0, 0x0p+0},
         }},
        {"sort", 0x1.f347a401fce01p+4, 0x1.25e57b94490e9p+2, 0x1.a9ce451cea9c7p+4, 0x0p+0, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+4, 0x1.25e57b94490e9p+2, 0x0p+0, 0x0p+0},
         }},
        {"reduce", 0x1.bffadd447ee11p+3, 0x1.a47c7016d50bp-2, 0x1.a9ce451cea9c7p+3, 0x1.ed7393ff03897p-3, 0x1.fe7cab2c0473p-1,
         {
             {0x1.a9ce451cea9c7p+3, 0x1.a47c7016d50bp-2, 0x1.ed7393ff03897p-3, 0x1.8b5b8494e5c6fp-14},
         }},
        {"compress", 0x1.de804bb38b972p+0, 0x1.58b90094acp-12, 0x1.de6ac023824c6p+0, 0x0p+0, 0x1p+0,
         {
             {0x1.64f3b9647ef47p-5, 0x1.58b90094acp-12, 0x0p+0, 0x0p+0},
         }},
    },
    4902u, 522u, 0u, 0u, 0u, 0u, 0x83e21e96592d94efu, 5319u, 0x3bc659bdc3da6cecu};

const CellPin kOneNodeSpeculativeGreedy = {
    {
        {"map", 0x1.661f86be94423p+4, 0x1.3214186bccf1fp-1, 0x1.e436a967f667p+3, 0x1.a9ce451cea9c7p+2, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+3, 0x1.3214186bccf1fp-1, 0x1.a9ce451cea9c7p+2, 0x0p+0},
         }},
        {"shuffle", 0x1.a9ce451cea9c7p+5, 0x0p+0, 0x1.a9ce451cea9c7p+5, 0x0p+0, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+5, 0x0p+0, 0x0p+0, 0x0p+0},
         }},
        {"sort", 0x1.f347a401fce01p+4, 0x1.25e57b94490e9p+2, 0x1.a9ce451cea9c7p+4, 0x0p+0, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+4, 0x1.25e57b94490e9p+2, 0x0p+0, 0x0p+0},
         }},
        {"reduce", 0x1.beb402b6f69a3p+3, 0x1.a47c7016d50bp-2, 0x1.a9ce451cea9c7p+3, 0x1.ed7393ff03897p-3, 0x1.fff23170e555cp-1,
         {
             {0x1.a9ce451cea9c7p+3, 0x1.a47c7016d50bp-2, 0x1.ed7393ff03897p-3, 0x0p+0},
         }},
        {"compress", 0x1.de804bb38b972p+0, 0x1.58b90094acp-12, 0x1.de6ac023824c6p+0, 0x0p+0, 0x1p+0,
         {
             {0x1.64f3b9647ef47p-5, 0x1.58b90094acp-12, 0x0p+0, 0x0p+0},
         }},
    },
    4902u, 522u, 30u, 30u, 0u, 0u, 0x83e21e96592d94efu, 5319u, 0x3bc659bdc3da6cecu};

const CellPin kOneNodeTokenReduced = {
    {
        {"map", 0x1.661f86be94423p+4, 0x1.3214186bccf1fp-1, 0x1.e436a967f667p+3, 0x1.a9ce451cea9c7p+2, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+3, 0x1.3214186bccf1fp-1, 0x1.a9ce451cea9c7p+2, 0x0p+0},
         }},
        {"shuffle", 0x1.a9ce451cea9c7p+5, 0x0p+0, 0x1.a9ce451cea9c7p+5, 0x0p+0, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+5, 0x0p+0, 0x0p+0, 0x0p+0},
         }},
        {"sort", 0x1.f347a401fce01p+4, 0x1.25e57b94490e9p+2, 0x1.a9ce451cea9c7p+4, 0x0p+0, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+4, 0x1.25e57b94490e9p+2, 0x0p+0, 0x0p+0},
         }},
        {"reduce", 0x1.0729fabeba47ep+4, 0x1.a47c7016d50bp-2, 0x1.a9ce451cea9c7p+3, 0x1.7216aeff42a7p-1, 0x1.c17f6232327fp-1,
         {
             {0x1.a9ce451cea9c7p+3, 0x1.a47c7016d50bp-2, 0x1.7216aeff42a7p-1, 0x0p+0},
         }},
        {"compress", 0x1.e3d3a0ddf3136p+0, 0x1.4b058f67bp-12, 0x1.e3bef084fc986p+0, 0x0p+0, 0x1p+0,
         {
             {0x1.07bce2c9e43a2p-4, 0x1.4b058f67bp-12, 0x0p+0, 0x0p+0},
         }},
    },
    4902u, 441u, 0u, 0u, 0u, 0u, 0x83e21e96592d94efu, 7860u, 0xf68cc22bfa8c08adu};

const CellPin kOneNodeSpeculativeReduced = {
    {
        {"map", 0x1.661f86be94423p+4, 0x1.3214186bccf1fp-1, 0x1.e436a967f667p+3, 0x1.a9ce451cea9c7p+2, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+3, 0x1.3214186bccf1fp-1, 0x1.a9ce451cea9c7p+2, 0x0p+0},
         }},
        {"shuffle", 0x1.a9ce451cea9c7p+5, 0x0p+0, 0x1.a9ce451cea9c7p+5, 0x0p+0, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+5, 0x0p+0, 0x0p+0, 0x0p+0},
         }},
        {"sort", 0x1.f347a401fce01p+4, 0x1.25e57b94490e9p+2, 0x1.a9ce451cea9c7p+4, 0x0p+0, 0x1p+0,
         {
             {0x1.a9ce451cea9c7p+4, 0x1.25e57b94490e9p+2, 0x0p+0, 0x0p+0},
         }},
        {"reduce", 0x1.0729fabeba47ep+4, 0x1.a47c7016d50bp-2, 0x1.a9ce451cea9c7p+3, 0x1.7216aeff42a7p-1, 0x1.c17f6232327fp-1,
         {
             {0x1.a9ce451cea9c7p+3, 0x1.a47c7016d50bp-2, 0x1.7216aeff42a7p-1, 0x0p+0},
         }},
        {"compress", 0x1.e3d3a0ddf3136p+0, 0x1.4b058f67bp-12, 0x1.e3bef084fc986p+0, 0x0p+0, 0x1p+0,
         {
             {0x1.07bce2c9e43a2p-4, 0x1.4b058f67bp-12, 0x0p+0, 0x0p+0},
         }},
    },
    4902u, 441u, 0u, 0u, 0u, 0u, 0x83e21e96592d94efu, 7860u, 0xf68cc22bfa8c08adu};

const CellPin kFourNodesTokenGreedy = {
    {
        {"map", 0x1.6874b68c38327p+2, 0x1.343fcfe4e7201p-3, 0x1.e73bc17fc53acp+1, 0x1.acd35d34b9702p+0, 0x1.fffffffffffffp-1,
         {
             {0x1.acd35d34b9702p+1, 0x1.343fcf582a541p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.acd35d34b9702p+1, 0x1.343fcf582a541p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.acd35d34b9702p+1, 0x1.343fcfe4e7201p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.a0befcd57e214p+1, 0x1.2b90f173c19b9p-3, 0x1.a0befcd57e214p+0, 0x0p+0},
         }},
        {"shuffle", 0x1.0b62d5ae5ca3fp+4, 0x0p+0, 0x1.bfd9db645072cp+3, 0x1.4727dcbddb984p+1, 0x1.00059ae73311bp+0,
         {
             {0x1.bfd9db645072cp+3, 0x0p+0, 0x1.4727dcbddb984p+1, 0x1.4876323c7bbf5p-3},
             {0x1.95453ae16c2ffp+3, 0x0p+0, 0x1.391016f96bbc4p+1, 0x1.3d8e3f3b1e3b8p-3},
             {0x1.95453ae16c2ffp+3, 0x0p+0, 0x1.391016f96bbc4p+1, 0x1.3d7e99ddbd023p-3},
             {0x1.bcd4c34c819f1p+3, 0x0p+0, 0x1.44564ec9c5391p+1, 0x1.4b638ecab821p-3},
         }},
        {"sort", 0x1.0a488af4722d8p+3, 0x1.397eec7d8647ep+0, 0x1.c6315ac982c9p+2, 0x0p+0, 0x1p+0,
         {
             {0x1.c6315ac982c9p+2, 0x1.397eec7d8647ep+0, 0x0p+0, 0x0p+0},
             {0x1.8d6b2f70526fep+2, 0x1.124c55fc15065p+0, 0x0p+0, 0x0p+0},
             {0x1.8d6b2f70526fep+2, 0x1.124fddfd4a1f7p+0, 0x0p+0, 0x0p+0},
             {0x1.c6315ac982c9p+2, 0x1.397acdda3eccap+0, 0x0p+0, 0x0p+0},
         }},
        {"reduce", 0x1.e52904fc74d2ep+1, 0x1.c0e6cb82ee53p-4, 0x1.c6315ac982c9p+1, 0x1.129c0652cccdfp-4, 0x1.f72e0f0cafc9fp-1,
         {
             {0x1.c6315ac982c9p+1, 0x1.bfff3172496bp-4, 0x1.eb3ca4761687bp-5, 0x1.8b5b8494e5c6fp-11},
             {0x1.8d6b2f70526fep+1, 0x1.8878985c370fp-4, 0x1.de5a1b87f966cp-5, 0x1.59f01402490e1p-11},
             {0x1.8d6b2f70526fep+1, 0x1.88932b09e55fp-4, 0x1.c6ff8358649bp-5, 0x1.59f01402490e1p-11},
             {0x1.c6315ac982c9p+1, 0x1.c0e6cb82ee53p-4, 0x1.129c0652cccdfp-4, 0x1.8b5b8494e5c6fp-11},
         }},
        {"compress", 0x1.dfe1c5d98046ep+0, 0x1.58b90094acp-12, 0x1.de6ac023824c6p+0, 0x0p+0, 0x1p+0,
         {
             {0x1.64f3b9647ef47p-5, 0x1.58b90094acp-12, 0x0p+0, 0x1.617a25f4afbf5p-8},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x1.9643c894c2872p-10},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x1.d887ad5c16a59p-10},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x1.0b8e90f0f2e84p-9},
         }},
    },
    4902u, 522u, 0u, 0u, 0u, 1015072u, 0x83e21e96592d94efu, 5319u, 0x3bc659bdc3da6cecu};

const CellPin kFourNodesSpeculativeGreedy = {
    {
        {"map", 0x1.6874b68c38327p+2, 0x1.343fcfe4e7201p-3, 0x1.e73bc17fc53acp+1, 0x1.acd35d34b9702p+0, 0x1.fffffffffffffp-1,
         {
             {0x1.acd35d34b9702p+1, 0x1.343fcf582a541p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.acd35d34b9702p+1, 0x1.343fcf582a541p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.acd35d34b9702p+1, 0x1.343fcfe4e7201p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.a0befcd57e214p+1, 0x1.2b90f173c19b9p-3, 0x1.a0befcd57e214p+0, 0x0p+0},
         }},
        {"shuffle", 0x1.0b62d5ae5ca3fp+4, 0x0p+0, 0x1.bfd9db645072cp+3, 0x1.4727dcbddb984p+1, 0x1.00059ae73311bp+0,
         {
             {0x1.bfd9db645072cp+3, 0x0p+0, 0x1.4727dcbddb984p+1, 0x1.4876323c7bbf5p-3},
             {0x1.95453ae16c2ffp+3, 0x0p+0, 0x1.391016f96bbc4p+1, 0x1.3d8e3f3b1e3b8p-3},
             {0x1.95453ae16c2ffp+3, 0x0p+0, 0x1.391016f96bbc4p+1, 0x1.3d7e99ddbd023p-3},
             {0x1.bcd4c34c819f1p+3, 0x0p+0, 0x1.44564ec9c5391p+1, 0x1.4b638ecab821p-3},
         }},
        {"sort", 0x1.0a488af4722d8p+3, 0x1.397eec7d8647ep+0, 0x1.c6315ac982c9p+2, 0x0p+0, 0x1p+0,
         {
             {0x1.c6315ac982c9p+2, 0x1.397eec7d8647ep+0, 0x0p+0, 0x0p+0},
             {0x1.8d6b2f70526fep+2, 0x1.124c55fc15065p+0, 0x0p+0, 0x0p+0},
             {0x1.8d6b2f70526fep+2, 0x1.124fddfd4a1f7p+0, 0x0p+0, 0x0p+0},
             {0x1.c6315ac982c9p+2, 0x1.397acdda3eccap+0, 0x0p+0, 0x0p+0},
         }},
        {"reduce", 0x1.de7806903eb15p+1, 0x1.c0e6cb82ee53p-4, 0x1.c6315ac982c9p+1, 0x1.129c0652cccdfp-4, 0x1.fe3785aacfbcep-1,
         {
             {0x1.c6315ac982c9p+1, 0x1.bfff3172496bp-4, 0x1.eb3ca4761687bp-5, 0x1.7aaacad893046p-7},
             {0x1.8d6b2f70526fep+1, 0x1.8878985c370fp-4, 0x1.de5a1b87f966cp-5, 0x1.f8abcc9201a77p-9},
             {0x1.8d6b2f70526fep+1, 0x1.88932b09e55fp-4, 0x1.c6ff8358649bp-5, 0x1.f8abcc9201a77p-9},
             {0x1.c6315ac982c9p+1, 0x1.c0e6cb82ee53p-4, 0x1.129c0652cccdfp-4, 0x1.f953923e48c2bp-9},
         }},
        {"compress", 0x1.de804bb38b972p+0, 0x1.58b90094acp-12, 0x1.de6ac023824c6p+0, 0x0p+0, 0x1p+0,
         {
             {0x1.64f3b9647ef47p-5, 0x1.58b90094acp-12, 0x0p+0, 0x0p+0},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
         }},
    },
    4902u, 522u, 30u, 30u, 0u, 1015072u, 0x83e21e96592d94efu, 5319u, 0x3bc659bdc3da6cecu};

const CellPin kFourNodesTokenReduced = {
    {
        {"map", 0x1.6874b68c38327p+2, 0x1.343fcfe4e7201p-3, 0x1.e73bc17fc53acp+1, 0x1.acd35d34b9702p+0, 0x1.fffffffffffffp-1,
         {
             {0x1.acd35d34b9702p+1, 0x1.343fcf582a541p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.acd35d34b9702p+1, 0x1.343fcf582a541p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.acd35d34b9702p+1, 0x1.343fcfe4e7201p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.a0befcd57e214p+1, 0x1.2b90f173c19b9p-3, 0x1.a0befcd57e214p+0, 0x0p+0},
         }},
        {"shuffle", 0x1.0b62d5ae5ca3fp+4, 0x0p+0, 0x1.bfd9db645072cp+3, 0x1.4727dcbddb984p+1, 0x1.00059ae73311bp+0,
         {
             {0x1.bfd9db645072cp+3, 0x0p+0, 0x1.4727dcbddb984p+1, 0x1.4876323c7bbf5p-3},
             {0x1.95453ae16c2ffp+3, 0x0p+0, 0x1.391016f96bbc4p+1, 0x1.3d8e3f3b1e3b8p-3},
             {0x1.95453ae16c2ffp+3, 0x0p+0, 0x1.391016f96bbc4p+1, 0x1.3d7e99ddbd023p-3},
             {0x1.bcd4c34c819f1p+3, 0x0p+0, 0x1.44564ec9c5391p+1, 0x1.4b638ecab821p-3},
         }},
        {"sort", 0x1.0a488af4722d8p+3, 0x1.397eec7d8647ep+0, 0x1.c6315ac982c9p+2, 0x0p+0, 0x1p+0,
         {
             {0x1.c6315ac982c9p+2, 0x1.397eec7d8647ep+0, 0x0p+0, 0x0p+0},
             {0x1.8d6b2f70526fep+2, 0x1.124c55fc15065p+0, 0x0p+0, 0x0p+0},
             {0x1.8d6b2f70526fep+2, 0x1.124fddfd4a1f7p+0, 0x0p+0, 0x0p+0},
             {0x1.c6315ac982c9p+2, 0x1.397acdda3eccap+0, 0x0p+0, 0x0p+0},
         }},
        {"reduce", 0x1.19e6ea111781p+2, 0x1.c0e6cb82ee53p-4, 0x1.c6315ac982c9p+1, 0x1.75426eb1dbd22p-3, 0x1.be6275f249c18p-1,
         {
             {0x1.c6315ac982c9p+1, 0x1.bfff3172496bp-4, 0x1.7440bbff418b9p-3, 0x1.458d510d0c45fp-5},
             {0x1.8d6b2f70526fep+1, 0x1.8878985c370fp-4, 0x1.75426eb1dbd22p-3, 0x1.32f79c1720d87p-5},
             {0x1.8d6b2f70526fep+1, 0x1.88932b09e55fp-4, 0x1.6bff9c46b6e27p-3, 0x1.2bfce7408ab2ep-5},
             {0x1.c6315ac982c9p+1, 0x1.c0e6cb82ee53p-4, 0x1.72d7f505365bfp-3, 0x1.31d119018dd2cp-5},
         }},
        {"compress", 0x1.e3d3a0ddf3137p+0, 0x1.4b058f67b1p-12, 0x1.e3bef084fc986p+0, 0x0p+0, 0x1p+0,
         {
             {0x1.07bce2c9e43a2p-4, 0x1.4b058f67b1p-12, 0x0p+0, 0x0p+0},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
         }},
    },
    4902u, 441u, 0u, 0u, 0u, 1015072u, 0x83e21e96592d94efu, 7860u, 0xf68cc22bfa8c08adu};

const CellPin kFourNodesSpeculativeReduced = {
    {
        {"map", 0x1.6874b68c38327p+2, 0x1.343fcfe4e7201p-3, 0x1.e73bc17fc53acp+1, 0x1.acd35d34b9702p+0, 0x1.fffffffffffffp-1,
         {
             {0x1.acd35d34b9702p+1, 0x1.343fcf582a541p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.acd35d34b9702p+1, 0x1.343fcf582a541p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.acd35d34b9702p+1, 0x1.343fcfe4e7201p-3, 0x1.acd35d34b9702p+0, 0x0p+0},
             {0x1.a0befcd57e214p+1, 0x1.2b90f173c19b9p-3, 0x1.a0befcd57e214p+0, 0x0p+0},
         }},
        {"shuffle", 0x1.0b62d5ae5ca3fp+4, 0x0p+0, 0x1.bfd9db645072cp+3, 0x1.4727dcbddb984p+1, 0x1.00059ae73311bp+0,
         {
             {0x1.bfd9db645072cp+3, 0x0p+0, 0x1.4727dcbddb984p+1, 0x1.4876323c7bbf5p-3},
             {0x1.95453ae16c2ffp+3, 0x0p+0, 0x1.391016f96bbc4p+1, 0x1.3d8e3f3b1e3b8p-3},
             {0x1.95453ae16c2ffp+3, 0x0p+0, 0x1.391016f96bbc4p+1, 0x1.3d7e99ddbd023p-3},
             {0x1.bcd4c34c819f1p+3, 0x0p+0, 0x1.44564ec9c5391p+1, 0x1.4b638ecab821p-3},
         }},
        {"sort", 0x1.0a488af4722d8p+3, 0x1.397eec7d8647ep+0, 0x1.c6315ac982c9p+2, 0x0p+0, 0x1p+0,
         {
             {0x1.c6315ac982c9p+2, 0x1.397eec7d8647ep+0, 0x0p+0, 0x0p+0},
             {0x1.8d6b2f70526fep+2, 0x1.124c55fc15065p+0, 0x0p+0, 0x0p+0},
             {0x1.8d6b2f70526fep+2, 0x1.124fddfd4a1f7p+0, 0x0p+0, 0x0p+0},
             {0x1.c6315ac982c9p+2, 0x1.397acdda3eccap+0, 0x0p+0, 0x0p+0},
         }},
        {"reduce", 0x1.19e6ea111781p+2, 0x1.c0e6cb82ee53p-4, 0x1.c6315ac982c9p+1, 0x1.75426eb1dbd22p-3, 0x1.be6275f249c18p-1,
         {
             {0x1.c6315ac982c9p+1, 0x1.bfff3172496bp-4, 0x1.7440bbff418b9p-3, 0x1.458d510d0c45fp-5},
             {0x1.8d6b2f70526fep+1, 0x1.8878985c370fp-4, 0x1.75426eb1dbd22p-3, 0x1.32f79c1720d87p-5},
             {0x1.8d6b2f70526fep+1, 0x1.88932b09e55fp-4, 0x1.6bff9c46b6e27p-3, 0x1.2bfce7408ab2ep-5},
             {0x1.c6315ac982c9p+1, 0x1.c0e6cb82ee53p-4, 0x1.72d7f505365bfp-3, 0x1.31d119018dd2cp-5},
         }},
        {"compress", 0x1.e3d3a0ddf3137p+0, 0x1.4b058f67b1p-12, 0x1.e3bef084fc986p+0, 0x0p+0, 0x1p+0,
         {
             {0x1.07bce2c9e43a2p-4, 0x1.4b058f67b1p-12, 0x0p+0, 0x0p+0},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
             {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
         }},
    },
    4902u, 441u, 0u, 0u, 0u, 1015072u, 0x83e21e96592d94efu, 7860u, 0xf68cc22bfa8c08adu};
// clang-format on

TEST_F(ClusterLedger, OneNodeTokenGreedy) {
  check(kOneNodeTokenGreedy,
        cluster(1, ReduceStrategy::kLengthToken, core::GraphMode::kGreedy),
        "OneNodeTokenGreedy");
}

TEST_F(ClusterLedger, OneNodeSpeculativeGreedy) {
  check(kOneNodeSpeculativeGreedy,
        cluster(1, ReduceStrategy::kSpeculative, core::GraphMode::kGreedy),
        "OneNodeSpeculativeGreedy");
}

TEST_F(ClusterLedger, OneNodeTokenReduced) {
  check(kOneNodeTokenReduced,
        cluster(1, ReduceStrategy::kLengthToken, core::GraphMode::kReduced),
        "OneNodeTokenReduced");
}

TEST_F(ClusterLedger, OneNodeSpeculativeReduced) {
  check(kOneNodeSpeculativeReduced,
        cluster(1, ReduceStrategy::kSpeculative, core::GraphMode::kReduced),
        "OneNodeSpeculativeReduced");
}

TEST_F(ClusterLedger, FourNodesTokenGreedy) {
  check(kFourNodesTokenGreedy,
        cluster(4, ReduceStrategy::kLengthToken, core::GraphMode::kGreedy),
        "FourNodesTokenGreedy");
}

TEST_F(ClusterLedger, FourNodesSpeculativeGreedy) {
  check(kFourNodesSpeculativeGreedy,
        cluster(4, ReduceStrategy::kSpeculative, core::GraphMode::kGreedy),
        "FourNodesSpeculativeGreedy");
}

TEST_F(ClusterLedger, FourNodesTokenReduced) {
  check(kFourNodesTokenReduced,
        cluster(4, ReduceStrategy::kLengthToken, core::GraphMode::kReduced),
        "FourNodesTokenReduced");
}

TEST_F(ClusterLedger, FourNodesSpeculativeReduced) {
  check(kFourNodesSpeculativeReduced,
        cluster(4, ReduceStrategy::kSpeculative, core::GraphMode::kReduced),
        "FourNodesSpeculativeReduced");
}

}  // namespace
}  // namespace lasagna::dist
