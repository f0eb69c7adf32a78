// The multi-backend kernel harness contract:
//  - every backend (simulated-GPU, scalar, AVX2 when the host has it)
//    produces byte-identical outputs for all three hot kernels, including
//    ragged read lengths, empty partitions and adversarial tie corpora,
//    and the host kernels' sorted-needle merge-join and MSD sort match
//    std::lower_bound/upper_bound and std::stable_sort on edge shapes;
//  - dump capture is deterministic (same seed -> byte-identical dump) and
//    replay byte-compares every backend against the golden capture;
//  - malformed or truncated dumps are rejected, and an existing dump is
//    never overwritten without force;
//  - the pipeline emits byte-identical contigs under every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>

#include "core/pipeline.hpp"
#include "fingerprint/kernels.hpp"
#include "fingerprint/rabin_karp.hpp"
#include "gpu/device.hpp"
#include "io/tempdir.hpp"
#include "kernel/backend.hpp"
#include "kernel/cpu_features.hpp"
#include "kernel/dump.hpp"
#include "kernel/host_kernels.hpp"
#include "kernel/replay.hpp"
#include "obs/metrics.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"
#include "tie_corpus.hpp"

namespace lasagna {
namespace {

using gpu::Key128;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> ragged_reads(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> reads;
  const char* bases = "ACGT";
  // Mixed shapes: typical reads, a singleton base, an empty read, and
  // power-of-two +/- 1 lengths around the scan's doubling steps.
  for (const unsigned len : {100u, 1u, 0u, 63u, 64u, 65u, 37u, 128u, 7u}) {
    std::string r;
    for (unsigned i = 0; i < len; ++i) {
      r.push_back(bases[rng() & 3]);
    }
    reads.push_back(std::move(r));
  }
  return reads;
}

/// Fingerprints of `reads` computed through the dispatcher under `backend`.
fingerprint::BatchFingerprints run_fingerprints(
    kernel::Backend& backend, const std::vector<std::string>& reads,
    const fingerprint::FingerprintConfig& cfg) {
  gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
  fingerprint::PlaceTable places(cfg, 512);
  kernel::ScopedBackend scope(backend);
  return fingerprint::compute_batch_fingerprints(dev, reads, places);
}

std::vector<kernel::Backend*> host_backends_under_test() {
  std::vector<kernel::Backend*> backends = {&kernel::scalar_backend()};
  if (kernel::avx2_backend().available()) {
    backends.push_back(&kernel::avx2_backend());
  }
  return backends;
}

TEST(KernelBackend, FingerprintGoldenAcrossBackends) {
  const auto reads = ragged_reads(42);
  const auto cfg = fingerprint::FingerprintConfig::standard();
  const auto golden = run_fingerprints(kernel::simulated_backend(), reads, cfg);

  // The simulated scan agrees with the host Rabin-Karp reference.
  const auto ref_prefix = fingerprint::prefix_hashes(reads[0], cfg.primary);
  for (std::size_t i = 0; i < reads[0].size(); ++i) {
    ASSERT_EQ(golden.prefix[i].hi, ref_prefix[i]) << i;
  }

  for (kernel::Backend* backend : host_backends_under_test()) {
    const auto got = run_fingerprints(*backend, reads, cfg);
    ASSERT_EQ(got.stride, golden.stride) << backend->name();
    ASSERT_EQ(0, std::memcmp(got.prefix.data(), golden.prefix.data(),
                             golden.prefix.size() * sizeof(Key128)))
        << backend->name() << " prefix";
    ASSERT_EQ(0, std::memcmp(got.suffix.data(), golden.suffix.data(),
                             golden.suffix.size() * sizeof(Key128)))
        << backend->name() << " suffix";
  }

  // Canonical form: lanes past a read's length are zero (read #2 is empty,
  // so its whole row must be zero).
  const std::size_t empty_row = 2 * static_cast<std::size_t>(golden.stride);
  for (std::size_t i = 0; i < golden.stride; ++i) {
    EXPECT_EQ(golden.prefix[empty_row + i], Key128{});
    EXPECT_EQ(golden.suffix[empty_row + i], Key128{});
  }
}

TEST(KernelBackend, FingerprintWeakModuliFallBackToScalar) {
  // Tiny moduli violate the AVX2 path's headroom preconditions; the job
  // must silently take the scalar path and still match the simulated scan.
  const auto reads = ragged_reads(7);
  const auto cfg = fingerprint::FingerprintConfig::weak(251, 257);
  const auto golden = run_fingerprints(kernel::simulated_backend(), reads, cfg);
  for (kernel::Backend* backend : host_backends_under_test()) {
    const auto got = run_fingerprints(*backend, reads, cfg);
    EXPECT_EQ(0, std::memcmp(got.prefix.data(), golden.prefix.data(),
                             golden.prefix.size() * sizeof(Key128)))
        << backend->name();
    EXPECT_EQ(0, std::memcmp(got.suffix.data(), golden.suffix.data(),
                             golden.suffix.size() * sizeof(Key128)))
        << backend->name();
  }
}

/// `count` reads of mixed lengths up to `max_length` (the first is that
/// long, so it sets the stride), encoded as a fingerprint job needs them.
struct EncodedReads {
  unsigned stride = 0;
  std::vector<std::uint8_t> codes;
  std::vector<std::uint16_t> lengths;
};

EncodedReads mixed_encoded_reads(std::size_t count, unsigned max_length,
                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  EncodedReads out;
  out.stride = max_length;
  out.codes.assign(count * max_length, 0);
  for (std::size_t r = 0; r < count; ++r) {
    const unsigned len =
        r == 0 ? max_length
               : static_cast<unsigned>(rng() % (max_length + 1));
    out.lengths.push_back(static_cast<std::uint16_t>(len));
    for (unsigned i = 0; i < len; ++i) {
      out.codes[r * max_length + i] = static_cast<std::uint8_t>(rng() & 3);
    }
  }
  return out;
}

/// count*stride zeroed lanes, their first one `offset` bytes past a 16-byte
/// boundary (8 bytes reaches the AVX2 kernel's plain-store path).
class Lanes {
 public:
  Lanes(std::size_t count, std::size_t offset)
      : raw_(new std::byte[count * sizeof(Key128) + offset]),
        lanes_(reinterpret_cast<Key128*>(raw_.get() + offset)),
        count_(count) {
    std::uninitialized_value_construct_n(lanes_, count);
  }

  [[nodiscard]] Key128* data() { return lanes_; }
  [[nodiscard]] std::vector<Key128> values() const {
    return {lanes_, lanes_ + count_};
  }

 private:
  std::unique_ptr<std::byte[]> raw_;
  Key128* lanes_;
  std::size_t count_;
};

/// Run `backend`'s fingerprint kernel on `reads` rows [first, first + count)
/// into zeroed outputs placed `offset` bytes past a 16-byte boundary.
std::pair<std::vector<Key128>, std::vector<Key128>> fingerprint_rows(
    kernel::Backend& backend, const EncodedReads& reads, std::size_t first,
    std::size_t count, const fingerprint::PlaceTable& places,
    std::size_t offset = 0) {
  const std::size_t lanes = count * reads.stride;
  Lanes prefix(lanes, offset);
  Lanes suffix(lanes, offset);
  kernel::FingerprintJob job;
  job.count = static_cast<unsigned>(count);
  job.stride = reads.stride;
  job.codes = std::span(reads.codes).subspan(first * reads.stride, lanes);
  job.lengths = std::span(reads.lengths).subspan(first, count);
  job.primary = places.config().primary;
  job.secondary = places.config().secondary;
  job.pow_primary = places.primary_table();
  job.pow_secondary = places.secondary_table();
  job.prefix = prefix.data();
  job.suffix = suffix.data();
  backend.fingerprint(job, nullptr);
  return {prefix.values(), suffix.values()};
}

TEST(KernelBackend, FingerprintFanOutMatchesUnsplitScalar) {
  // Around the fan-out threshold the host kernels split the reads over the
  // pool (and only from the threshold up); the bytes must equal scalar's
  // run one read at a time, far below any split, with the outputs on a
  // 16-byte boundary or 8 bytes past one.
  const fingerprint::PlaceTable places(
      fingerprint::FingerprintConfig::standard(), 512);
  const unsigned stride = 100;
  const std::size_t threshold = kernel::host::fingerprint_fan_out_min(stride);
  ASSERT_GT(threshold, 1u);
  auto& tasks = obs::MetricsRegistry::global().counter("pool.tasks_submitted");
  for (const std::size_t count : {threshold - 1, threshold, threshold + 1}) {
    const EncodedReads reads = mixed_encoded_reads(count, stride, count);
    std::vector<Key128> want_prefix;
    std::vector<Key128> want_suffix;
    for (std::size_t r = 0; r < count; ++r) {
      const auto row =
          fingerprint_rows(kernel::scalar_backend(), reads, r, 1, places);
      want_prefix.insert(want_prefix.end(), row.first.begin(),
                         row.first.end());
      want_suffix.insert(want_suffix.end(), row.second.begin(),
                         row.second.end());
    }
    for (kernel::Backend* backend : host_backends_under_test()) {
      for (const std::size_t offset : {0u, 8u}) {
        const std::int64_t tasks_before = tasks.value();
        const auto got =
            fingerprint_rows(*backend, reads, 0, count, places, offset);
        EXPECT_EQ(tasks.value() > tasks_before, count >= threshold)
            << backend->name() << " count " << count;
        EXPECT_TRUE(got.first == want_prefix) << backend->name() << " prefix, "
                                              << count << " reads, offset "
                                              << offset;
        EXPECT_TRUE(got.second == want_suffix) << backend->name() << " suffix, "
                                               << count << " reads, offset "
                                               << offset;
      }
    }
  }
}

std::vector<kernel::Backend*> every_backend_under_test() {
  std::vector<kernel::Backend*> backends = {&kernel::simulated_backend()};
  for (kernel::Backend* b : host_backends_under_test()) backends.push_back(b);
  return backends;
}

TEST(KernelBackend, FingerprintReusedBufferMatchesFreshOne) {
  // A buffer left by a batch of longer reads, reused for a ragged batch,
  // must hold the same bytes as a fresh zero-filled one: the lanes past
  // each read's length are zeroed again.
  const auto cfg = fingerprint::FingerprintConfig::standard();
  const fingerprint::PlaceTable places(cfg, 512);
  const std::vector<std::string> longer(40, seq::random_genome(150, 3));
  const auto ragged = ragged_reads(11);
  for (kernel::Backend* backend : every_backend_under_test()) {
    gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
    kernel::ScopedBackend scope(*backend);
    fingerprint::BatchFingerprints reused;
    fingerprint::compute_batch_fingerprints(
        dev, longer, places, fingerprint::KernelStrategy::kBlockPerRead,
        nullptr, reused);
    const Key128* storage = reused.prefix.data();
    fingerprint::compute_batch_fingerprints(
        dev, ragged, places, fingerprint::KernelStrategy::kBlockPerRead,
        nullptr, reused);
    EXPECT_EQ(reused.prefix.data(), storage) << backend->name();
    const auto fresh =
        fingerprint::compute_batch_fingerprints(dev, ragged, places);
    EXPECT_EQ(reused.stride, fresh.stride) << backend->name();
    EXPECT_TRUE(reused.prefix == fresh.prefix) << backend->name();
    EXPECT_TRUE(reused.suffix == fresh.suffix) << backend->name();
  }
}

TEST(KernelBackend, FingerprintRejectsNonAcgtBases) {
  // The batch is encoded on the pool; a bad base in a late read still
  // surfaces as std::invalid_argument on the caller, naming the base.
  const fingerprint::PlaceTable places(
      fingerprint::FingerprintConfig::standard(), 512);
  std::vector<std::string> reads(400, seq::random_genome(100, 5));
  reads[300][42] = 'N';
  gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
  try {
    (void)fingerprint::compute_batch_fingerprints(dev, reads, places);
    ADD_FAILURE() << "accepted a non-ACGT base";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "not an ACGT base: 'N'");
  }
}

/// Every backend's bounds of `needles` in `haystack` equal
/// std::lower_bound / std::upper_bound's.
void expect_bounds_match_std(const std::vector<Key128>& needles,
                             const std::vector<Key128>& haystack) {
  std::vector<std::uint32_t> want_lower(needles.size());
  std::vector<std::uint32_t> want_upper(needles.size());
  for (std::size_t i = 0; i < needles.size(); ++i) {
    want_lower[i] = static_cast<std::uint32_t>(
        std::lower_bound(haystack.begin(), haystack.end(), needles[i]) -
        haystack.begin());
    want_upper[i] = static_cast<std::uint32_t>(
        std::upper_bound(haystack.begin(), haystack.end(), needles[i]) -
        haystack.begin());
  }
  gpu::Device dev(gpu::GpuProfile::k40(), 64u << 20);
  kernel::DeviceContext ctx{&dev, nullptr, false};
  for (kernel::Backend* backend : every_backend_under_test()) {
    std::vector<std::uint32_t> lower(needles.size(), 123);
    std::vector<std::uint32_t> upper(needles.size(), 123);
    backend->match_bounds(needles, haystack, lower, upper, &ctx);
    EXPECT_EQ(lower, want_lower) << backend->name();
    EXPECT_EQ(upper, want_upper) << backend->name();
  }
}

/// `count` keys drawn from [0, hi_range) x [0, lo_range).
std::vector<Key128> random_keys(std::size_t count, std::uint64_t hi_range,
                                std::uint64_t lo_range, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key128> keys(count);
  for (Key128& k : keys) k = Key128{rng() % hi_range, rng() % lo_range};
  return keys;
}

std::vector<Key128> sorted(std::vector<Key128> keys) {
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Every backend sorts `keys` (payload = input index, so a tie taken out
/// of order shows) exactly as std::stable_sort does.
void expect_sort_matches_std(const std::vector<Key128>& keys) {
  std::vector<std::uint64_t> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::uint64_t> want_vals = order;
  std::stable_sort(want_vals.begin(), want_vals.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return keys[a] < keys[b];
                   });
  std::vector<Key128> want_keys(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    want_keys[i] = keys[want_vals[i]];
  }
  gpu::Device dev(gpu::GpuProfile::k40(), 64u << 20);
  kernel::DeviceContext ctx{&dev, nullptr, false};
  for (kernel::Backend* backend : every_backend_under_test()) {
    std::vector<Key128> got_keys = keys;
    std::vector<std::uint64_t> got_vals = order;
    backend->sort_pairs(got_keys, got_vals, &ctx);
    EXPECT_EQ(got_keys, want_keys) << backend->name() << " n=" << keys.size();
    EXPECT_EQ(got_vals, want_vals) << backend->name() << " n=" << keys.size();
  }
}

TEST(KernelBackend, MatchBoundsAcrossBackends) {
  std::mt19937_64 rng(99);
  // Haystack with dense duplicate runs (the tie-heavy shape the reduce
  // phase produces for repeated fingerprints).
  std::vector<Key128> haystack;
  for (unsigned v = 0; v < 200; ++v) {
    const Key128 k{rng() % 50, rng() % 3};
    const unsigned copies = 1 + static_cast<unsigned>(rng() % 4);
    for (unsigned c = 0; c < copies; ++c) haystack.push_back(k);
  }
  std::sort(haystack.begin(), haystack.end());
  std::vector<Key128> needles;
  for (unsigned i = 0; i < 333; ++i) {
    needles.push_back(i % 3 == 0 ? haystack[rng() % haystack.size()]
                                 : Key128{rng() % 60, rng() % 3});
  }

  expect_bounds_match_std(needles, haystack);
  // Empty haystack (all bounds are zero) and empty needles (a no-op).
  expect_bounds_match_std({needles.begin(), needles.begin() + 5}, {});
  expect_bounds_match_std({}, haystack);
}

TEST(KernelBackend, SortPairsAcrossBackends) {
  // Random keys plus the adversarial equal-fingerprint clusters from the
  // tie corpus: stability is observable through the value payloads.
  std::mt19937_64 rng(1234);
  std::vector<Key128> keys;
  for (unsigned i = 0; i < 2000; ++i) {
    keys.push_back(Key128{rng() % 97, rng() % 7});
  }
  const auto ties = lasagna::testing::make_tie_records(8, 5, 6, 77);
  for (const auto& rec : ties.sfx) keys.push_back(rec.fp);
  expect_sort_matches_std(keys);
}

// ---- sorted-needle match_bounds and MSD sort_pairs edge cases -------------

TEST(KernelBackend, SortedNeedleMatchBoundsEdgeShapes) {
  {
    SCOPED_TRACE("duplicate runs in both arrays");
    expect_bounds_match_std(sorted(random_keys(3000, 40, 2, 1)),
                            sorted(random_keys(2500, 40, 2, 2)));
  }
  {
    SCOPED_TRACE("needles below and above the haystack's range");
    std::vector<Key128> outside = random_keys(500, 10, 4, 3);
    for (const Key128& k : random_keys(500, 10, 4, 4)) {
      outside.push_back(Key128{k.hi + 1000, k.lo});
    }
    std::vector<Key128> middle = random_keys(800, 100, 4, 5);
    for (Key128& k : middle) k.hi += 200;
    expect_bounds_match_std(sorted(outside), sorted(middle));
  }
  {
    SCOPED_TRACE("1 needle against 100 k haystack keys");
    const std::vector<Key128> big =
        sorted(random_keys(100000, 1u << 20, 8, 6));
    expect_bounds_match_std({big[77777]}, big);
    expect_bounds_match_std({Key128{1u << 21, 0}}, big);
  }
  {
    SCOPED_TRACE("100 k needles against a 3-key haystack");
    expect_bounds_match_std(sorted(random_keys(100000, 5, 1, 7)),
                            {Key128{1, 0}, Key128{2, 0}, Key128{2, 0}});
  }
  {
    SCOPED_TRACE("an all-equal haystack");
    expect_bounds_match_std(sorted(random_keys(4000, 3, 2, 8)),
                            std::vector<Key128>(5000, Key128{1, 1}));
  }
  {
    SCOPED_TRACE("a sorted prefix, then needles in no order");
    std::vector<Key128> mixed = sorted(random_keys(3000, 60, 2, 9));
    const std::vector<Key128> tail = random_keys(3001, 60, 2, 10);
    mixed.insert(mixed.end(), tail.begin(), tail.end());
    expect_bounds_match_std(mixed, sorted(random_keys(2000, 50, 2, 11)));
  }
}

TEST(KernelBackend, SortPairsSizesAroundCutoffs) {
  // Fingerprint-shaped keys (both hashes below 2^61) at sizes around the
  // insertion-sort cutoff and the pool fan-out threshold.
  constexpr std::uint64_t kFp = 1ull << 61;
  const std::size_t cut = kernel::host::kInsertionSortMax;
  const std::size_t fan = kernel::host::kSortFanOutMin;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              cut - 1, cut, cut + 1, fan - 1, fan, fan + 1,
                              std::size_t{200000}}) {
    expect_sort_matches_std(random_keys(n, kFp, kFp, 100 + n));
  }
}

TEST(KernelBackend, SortPairsKeyShapes) {
  constexpr std::uint64_t kFp = 1ull << 61;
  const std::size_t fan = kernel::host::kSortFanOutMin;
  for (const std::size_t n : {std::size_t{1000}, fan + 1}) {
    SCOPED_TRACE(n);
    // Weak-moduli keys: only the low digits differ, with many ties.
    expect_sort_matches_std(random_keys(n, 1000, 1000, 200));
    // Every key equal, then all but the last, which sorts first.
    std::vector<Key128> equal(n, Key128{42, 42});
    expect_sort_matches_std(equal);
    equal.back() = Key128{41, 42};
    expect_sort_matches_std(equal);
    // Keys differing only in lo.
    std::vector<Key128> lo_only = random_keys(n, 1, kFp, 201);
    for (Key128& k : lo_only) k.hi = 0x0123456789abcdefull;
    expect_sort_matches_std(lo_only);
    // Presorted and reverse-sorted, duplicates included.
    std::vector<Key128> presorted = sorted(random_keys(n, kFp >> 50, 4, 202));
    expect_sort_matches_std(presorted);
    std::reverse(presorted.begin(), presorted.end());
    expect_sort_matches_std(presorted);
  }
}

TEST(KernelBackend, RegistryResolvesNamesAndFallsBack) {
  EXPECT_EQ(kernel::resolve_backend("").name(), "simulated");
  EXPECT_EQ(kernel::resolve_backend("simulated").name(), "simulated");
  EXPECT_EQ(kernel::resolve_backend("scalar").name(), "scalar");
  // "avx2" resolves to avx2 when available, otherwise falls back.
  const std::string_view avx2_pick = kernel::resolve_backend("avx2").name();
  if (kernel::avx2_backend().available()) {
    EXPECT_EQ(avx2_pick, "avx2");
    EXPECT_TRUE(kernel::cpu_features().avx2);
    EXPECT_EQ(kernel::resolve_backend("host").name(), "avx2");
  } else {
    EXPECT_EQ(avx2_pick, "scalar");
    EXPECT_EQ(kernel::resolve_backend("host").name(), "scalar");
  }
  EXPECT_THROW((void)kernel::resolve_backend("cuda"), std::invalid_argument);

  EXPECT_EQ(kernel::find_backend("scalar"), &kernel::scalar_backend());
  EXPECT_EQ(kernel::find_backend("nope"), nullptr);
  EXPECT_EQ(kernel::all_backends().size(), 3u);

  // Default active backend is the simulated device; ScopedBackend nests.
  EXPECT_EQ(kernel::active_backend().name(), "simulated");
  {
    kernel::ScopedBackend outer(kernel::scalar_backend());
    EXPECT_EQ(kernel::active_backend().name(), "scalar");
    {
      kernel::ScopedBackend inner(kernel::simulated_backend());
      EXPECT_EQ(kernel::active_backend().name(), "simulated");
    }
    EXPECT_EQ(kernel::active_backend().name(), "scalar");
  }
  EXPECT_EQ(kernel::active_backend().name(), "simulated");
}

// ---- dump / replay ---------------------------------------------------------

std::filesystem::path write_fastq(const io::ScopedTempDir& dir,
                                  std::uint64_t seed) {
  const std::string genome = seq::random_genome(4000, seed);
  seq::SequencingSpec spec;
  spec.read_length = 100;
  spec.coverage = 8.0;
  spec.seed = seed + 1;
  const auto path = dir.file("reads_" + std::to_string(seed) + ".fq");
  seq::simulate_to_fastq(genome, spec, path);
  return path;
}

core::AssemblyConfig small_config() {
  core::AssemblyConfig config;
  config.machine.host_memory_bytes = 1 << 20;
  config.machine.device_memory_bytes = 1 << 18;
  config.min_overlap = 60;
  return config;
}

/// Run the assembler over `fastq` capturing kernel dumps into `dump_dir`.
void capture_run(const std::filesystem::path& fastq,
                 const std::filesystem::path& dump_dir,
                 const std::filesystem::path& contigs) {
  kernel::CaptureSession session(dump_dir, 16, /*force=*/false);
  kernel::ScopedCapture scoped(session);
  core::Assembler assembler(small_config());
  (void)assembler.run(fastq, contigs);
}

TEST(KernelBackendDumpTest, CaptureIsDeterministicForAFixedSeed) {
  io::ScopedTempDir dir("lasagna-kdump");
  const auto fastq = write_fastq(dir, 11);
  capture_run(fastq, dir.file("dump_a"), dir.file("a.fa"));
  capture_run(fastq, dir.file("dump_b"), dir.file("b.fa"));

  for (const kernel::KernelId id :
       {kernel::KernelId::kFingerprint, kernel::KernelId::kMatchBounds,
        kernel::KernelId::kSortPairs}) {
    const auto name = kernel::dump_filename(id);
    const std::string a = slurp(dir.file("dump_a") / name);
    const std::string b = slurp(dir.file("dump_b") / name);
    ASSERT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name << " differs between identical runs";
  }
}

TEST(KernelBackendDumpTest, ReplayByteComparesEveryBackendAgainstGolden) {
  io::ScopedTempDir dir("lasagna-kreplay");
  const auto fastq = write_fastq(dir, 23);
  capture_run(fastq, dir.file("dump"), dir.file("out.fa"));

  std::vector<kernel::Backend*> backends = {&kernel::simulated_backend()};
  for (kernel::Backend* b : host_backends_under_test()) backends.push_back(b);
  for (kernel::Backend* backend : backends) {
    const auto report = kernel::replay_dump(dir.file("dump"), *backend);
    EXPECT_TRUE(report.ok()) << backend->name();
    EXPECT_EQ(report.kernels.size(), 3u) << backend->name();
    for (const auto& k : report.kernels) {
      EXPECT_GT(k.records, 0u)
          << backend->name() << " " << kernel::kernel_name(k.kernel);
      EXPECT_EQ(k.mismatched, 0u)
          << backend->name() << " " << kernel::kernel_name(k.kernel);
      EXPECT_GT(k.elements, 0u);
      EXPECT_GE(k.wall_seconds, 0.0);
    }
  }

  // A backend that produced different bytes would be caught: corrupt one
  // golden output byte and replay must flag a mismatch.
  const auto path = dir.file("dump") / kernel::dump_filename(
                                           kernel::KernelId::kSortPairs);
  std::string bytes = slurp(path);
  kernel::DumpReader header_probe(path);  // locate the first record's output
  kernel::DumpRecord rec;
  ASSERT_TRUE(header_probe.next(rec));
  const std::size_t record_start = 24;  // header
  const std::size_t output_off = record_start + 8 * 8 + 4 * 8 +
                                 rec.input.size();
  bytes[output_off] = static_cast<char>(bytes[output_off] ^ 0x1);
  // Re-checksum so the corruption models a wrong golden, not a damaged
  // file.
  {
    std::vector<std::byte> out_blob(rec.output.size());
    std::memcpy(out_blob.data(), bytes.data() + output_off,
                out_blob.size());
    const std::uint64_t fnv = kernel::fnv1a_bytes(out_blob);
    std::memcpy(bytes.data() + record_start + 8 * 8 + 3 * 8, &fnv,
                sizeof(fnv));
    std::ofstream rewrite(path, std::ios::binary | std::ios::trunc);
    rewrite.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto tampered =
      kernel::replay_dump(dir.file("dump"), kernel::scalar_backend());
  bool saw_mismatch = false;
  for (const auto& k : tampered.kernels) {
    if (k.kernel == kernel::KernelId::kSortPairs) {
      saw_mismatch = k.mismatched > 0;
    }
  }
  EXPECT_TRUE(saw_mismatch);
  EXPECT_FALSE(tampered.ok());
}

TEST(KernelBackendDumpTest, RefusesToOverwriteExistingDumpWithoutForce) {
  io::ScopedTempDir dir("lasagna-kforce");
  const auto dump = dir.file("dump");
  {
    kernel::CaptureSession session(dump, 4, false);
    kernel::ScopedCapture scoped(session);
    gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
    fingerprint::PlaceTable places(
        fingerprint::FingerprintConfig::standard(), 128);
    (void)fingerprint::compute_batch_fingerprints(dev, ragged_reads(3),
                                                  places);
    EXPECT_EQ(session.captured(kernel::KernelId::kFingerprint), 1u);
  }
  EXPECT_THROW(kernel::CaptureSession(dump, 4, false), std::runtime_error);
  EXPECT_NO_THROW(kernel::CaptureSession(dump, 4, true));
  EXPECT_THROW(
      kernel::DumpWriter(dump / "fingerprint.lkd",
                         kernel::KernelId::kFingerprint, false),
      std::runtime_error);
}

TEST(KernelBackendDumpTest, RejectsMalformedAndTruncatedDumps) {
  io::ScopedTempDir dir("lasagna-kbad");

  // Wrong magic.
  {
    std::ofstream out(dir.file("garbage.lkd"), std::ios::binary);
    out << "this is not a kernel dump at all";
  }
  EXPECT_THROW(kernel::DumpReader(dir.file("garbage.lkd")),
               std::runtime_error);

  // Valid header, truncated record.
  const auto trunc = dir.file("trunc.lkd");
  {
    kernel::DumpWriter writer(trunc, kernel::KernelId::kSortPairs, false);
    std::vector<std::byte> blob(64, std::byte{42});
    writer.append({2, 0, 0, 0, 0, 0, 0, 0}, blob, blob);
    writer.close();
  }
  const auto full = slurp(trunc);
  {
    std::ofstream out(trunc, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() - 17));
  }
  {
    kernel::DumpReader reader(trunc);
    kernel::DumpRecord rec;
    EXPECT_THROW((void)reader.next(rec), std::runtime_error);
  }

  // Flipped payload byte fails the checksum.
  const auto corrupt = dir.file("corrupt.lkd");
  {
    std::ofstream out(corrupt, std::ios::binary);
    std::string bytes = full;
    bytes[bytes.size() - 1] ^= 0x40;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  {
    kernel::DumpReader reader(corrupt);
    kernel::DumpRecord rec;
    EXPECT_THROW((void)reader.next(rec), std::runtime_error);
  }

  // Replay refuses an empty directory outright.
  EXPECT_THROW(
      (void)kernel::replay_dump(dir.file("empty"),
                                kernel::scalar_backend()),
      std::runtime_error);
}

// ---- pipeline conformance --------------------------------------------------

TEST(KernelBackendPipelineTest, ContigsByteIdenticalAcrossBackends) {
  io::ScopedTempDir dir("lasagna-kconform");
  const auto fastq = write_fastq(dir, 31);

  auto run_with = [&](const std::string& backend) {
    auto config = small_config();
    config.kernel_backend = backend;
    core::Assembler assembler(config);
    const auto out = dir.file("contigs_" + backend + ".fa");
    (void)assembler.run(fastq, out);
    return slurp(out);
  };

  const std::string golden = run_with("simulated");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(run_with("scalar"), golden);
  EXPECT_EQ(run_with("host"), golden);  // avx2 where available
  if (kernel::avx2_backend().available()) {
    EXPECT_EQ(run_with("avx2"), golden);
  }
}

TEST(KernelBackendPipelineTest, TieCorpusContigsIdenticalAcrossBackends) {
  // The adversarial equal-fingerprint corpus: repeated blocks force dense
  // duplicate fingerprints through sort and match alike.
  io::ScopedTempDir dir("lasagna-kties");
  const auto fastq = dir.file("ties.fq");
  lasagna::testing::write_tie_fastq(fastq, /*copies=*/6, /*read_length=*/100,
                                    /*coverage=*/6.0, /*seed=*/97);

  auto run_with = [&](const std::string& backend) {
    auto config = small_config();
    config.kernel_backend = backend;
    core::Assembler assembler(config);
    const auto out = dir.file("tie_contigs_" + backend + ".fa");
    (void)assembler.run(fastq, out);
    return slurp(out);
  };

  const std::string golden = run_with("simulated");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(run_with("host"), golden);
  EXPECT_EQ(run_with("scalar"), golden);
}

}  // namespace
}  // namespace lasagna
