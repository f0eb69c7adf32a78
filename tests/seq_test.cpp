#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "io/fastq.hpp"
#include "io/tempdir.hpp"
#include "seq/datasets.hpp"
#include "seq/dna.hpp"
#include "seq/genome.hpp"
#include "seq/read_store.hpp"
#include "seq/simulator.hpp"

namespace lasagna::seq {
namespace {

TEST(Dna, EncodeDecodeRoundTrip) {
  for (char c : {'A', 'C', 'G', 'T'}) {
    EXPECT_EQ(decode_base(encode_base(c)), c);
  }
  EXPECT_EQ(decode_base(encode_base('a')), 'A');
  EXPECT_THROW((void)encode_base('N'), std::invalid_argument);
  Base b;
  EXPECT_FALSE(try_encode_base('N', b));
}

TEST(Dna, ComplementPairs) {
  EXPECT_EQ(complement('A'), 'T');
  EXPECT_EQ(complement('T'), 'A');
  EXPECT_EQ(complement('C'), 'G');
  EXPECT_EQ(complement('G'), 'C');
  EXPECT_EQ(complement(complement(Base::A)), Base::A);
}

TEST(Dna, ReverseComplement) {
  EXPECT_EQ(reverse_complement("ACGT"), "ACGT");  // palindrome
  EXPECT_EQ(reverse_complement("AAAC"), "GTTT");
  EXPECT_EQ(reverse_complement(""), "");
  const std::string s = "GATACCAGTA";  // the paper's Fig 5 example read
  EXPECT_EQ(reverse_complement(reverse_complement(s)), s);
}

TEST(Dna, TablesMatchTheAlphabetOnEveryByteValue) {
  // Every byte value: A/C/G/T in either case encode, complement and
  // reverse-complement as the alphabet says; everything else is refused
  // with std::invalid_argument naming the byte.
  for (int v = 0; v < 256; ++v) {
    const char c = static_cast<char>(v);
    int code = -1;
    switch (c) {
      case 'A': case 'a': code = 0; break;
      case 'C': case 'c': code = 1; break;
      case 'G': case 'g': code = 2; break;
      case 'T': case 't': code = 3; break;
      default: break;
    }
    const std::string text = std::string("AC") + c + "GT";
    Base b = Base::G;
    std::uint8_t codes[5] = {9, 9, 9, 9, 9};
    EXPECT_EQ(try_encode_base(c, b), code >= 0) << v;
    if (code >= 0) {
      const char comp = "ACGT"[code ^ 3];
      EXPECT_EQ(static_cast<int>(b), code) << v;
      EXPECT_EQ(static_cast<int>(encode_base(c)), code) << v;
      EXPECT_EQ(complement(c), comp) << v;
      EXPECT_EQ(reverse_complement(text), std::string("AC") + comp + "GT")
          << v;
      encode_bases(text, codes);
      EXPECT_EQ(codes[2], code) << v;
      EXPECT_EQ(codes[0], 0) << v;
      EXPECT_EQ(codes[4], 3) << v;
      continue;
    }
    EXPECT_EQ(b, Base::G) << v;  // untouched
    const std::string message =
        (std::string("not an ACGT base: '") + c + "'").c_str();
    auto expect_refused = [&](auto&& call, const char* what) {
      try {
        call();
        ADD_FAILURE() << what << " accepted byte " << v;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), message) << what << " " << v;
      }
    };
    expect_refused([&] { (void)encode_base(c); }, "encode_base");
    expect_refused([&] { (void)complement(c); }, "complement");
    expect_refused([&] { (void)reverse_complement(text); },
                   "reverse_complement");
    expect_refused([&] { encode_bases(text, codes); }, "encode_bases");
  }
}

TEST(Dna, SanitizeReplacesOnlyBadBases) {
  const std::string out = sanitize("ACNNGT", 5);
  EXPECT_EQ(out.size(), 6u);
  EXPECT_EQ(out.substr(0, 2), "AC");
  EXPECT_EQ(out.substr(4), "GT");
  EXPECT_TRUE(is_acgt(out));
  EXPECT_EQ(sanitize("ACNNGT", 5), out) << "must be deterministic";
}

TEST(PackedReads, StoreAndDecode) {
  PackedReads store;
  EXPECT_EQ(store.add("ACGTACGTA"), 0u);
  EXPECT_EQ(store.add("TTTT"), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.length(0), 9u);
  EXPECT_EQ(store.decode(0), "ACGTACGTA");
  EXPECT_EQ(store.decode(1), "TTTT");
  EXPECT_EQ(store.decode_rc(1), "AAAA");
  EXPECT_EQ(store.decode_rc(0), reverse_complement("ACGTACGTA"));
  EXPECT_EQ(store.total_bases(), 13u);
  EXPECT_EQ(store.max_length(), 9u);
}

TEST(PackedReads, CrossesWordBoundaries) {
  PackedReads store;
  const std::string long_read =
      "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACG";
  store.add(long_read);
  store.add(long_read);
  EXPECT_EQ(store.decode(0), long_read);
  EXPECT_EQ(store.decode(1), long_read);
}

TEST(PackedReads, BatchStreamCoversAllReads) {
  io::ScopedTempDir dir("lasagna-test");
  std::vector<io::SequenceRecord> records;
  for (int i = 0; i < 57; ++i) {
    records.push_back({"r" + std::to_string(i), "ACGTACGTAC", ""});
  }
  io::write_fastq_file(dir.file("reads.fq"), records);

  ReadBatchStream stream(dir.file("reads.fq"), 35);  // ~3 reads per batch
  ReadBatch batch;
  std::uint32_t seen = 0;
  while (stream.next(batch)) {
    EXPECT_EQ(batch.first_id, seen);
    EXPECT_LE(batch.reads.size(), 3u);
    seen += batch.size();
  }
  EXPECT_EQ(seen, 57u);
}

TEST(PackedReads, BatchStreamAdmitsOversizedSingleRead) {
  io::ScopedTempDir dir("lasagna-test");
  io::write_fastq_file(dir.file("reads.fq"),
                       {{"big", std::string(100, 'A'), ""}});
  ReadBatchStream stream(dir.file("reads.fq"), 10);
  ReadBatch batch;
  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.reads.size(), 1u);
  EXPECT_FALSE(stream.next(batch));
}

TEST(Genome, DeterministicAndCorrectLength) {
  const std::string a = random_genome(1000, 5);
  const std::string b = random_genome(1000, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_TRUE(is_acgt(a));
  EXPECT_NE(a, random_genome(1000, 6));
}

TEST(Genome, UsesAllBases) {
  const std::string g = random_genome(4000, 1);
  for (char c : {'A', 'C', 'G', 'T'}) {
    EXPECT_NE(g.find(c), std::string::npos);
  }
}

TEST(Genome, RepeatFractionCreatesDuplicateSegments) {
  GenomeSpec spec;
  spec.length = 50000;
  spec.seed = 9;
  spec.repeat_fraction = 0.5;
  spec.repeat_segment = 200;
  const std::string g = generate_genome(spec);
  EXPECT_EQ(g.size(), spec.length);

  // Count 64-mers appearing more than once; with 50% repeated segments this
  // must be substantial, and near zero for a repeat-free genome.
  auto duplicated_kmers = [](const std::string& s) {
    std::set<std::string_view> seen;
    std::size_t dups = 0;
    for (std::size_t i = 0; i + 64 <= s.size(); i += 64) {
      if (!seen.insert(std::string_view(s).substr(i, 64)).second) ++dups;
    }
    return dups;
  };
  EXPECT_GT(duplicated_kmers(g), 4u);
  EXPECT_EQ(duplicated_kmers(random_genome(50000, 9)), 0u);
}

TEST(Simulator, ReadsComeFromGenome) {
  const std::string genome = random_genome(5000, 3);
  SequencingSpec spec;
  spec.read_length = 50;
  spec.coverage = 10.0;
  spec.seed = 11;
  const auto reads = simulate_reads(genome, spec);
  EXPECT_EQ(reads.size(), 1000u);  // coverage * len / read_length

  for (const auto& r : reads) {
    ASSERT_EQ(r.bases.size(), 50u);
    const std::string truth = genome.substr(r.position, 50);
    EXPECT_EQ(r.bases, r.reverse ? reverse_complement(truth) : truth);
  }
  EXPECT_TRUE(std::any_of(reads.begin(), reads.end(),
                          [](const auto& r) { return r.reverse; }));
  EXPECT_TRUE(std::any_of(reads.begin(), reads.end(),
                          [](const auto& r) { return !r.reverse; }));
}

TEST(Simulator, ErrorRateInjectsSubstitutions) {
  const std::string genome = random_genome(2000, 4);
  SequencingSpec spec;
  spec.read_length = 100;
  spec.coverage = 20.0;
  spec.error_rate = 0.05;
  spec.reverse_probability = 0.0;
  const auto reads = simulate_reads(genome, spec);

  std::uint64_t mismatches = 0;
  std::uint64_t bases = 0;
  for (const auto& r : reads) {
    const std::string truth = genome.substr(r.position, 100);
    for (std::size_t i = 0; i < 100; ++i) {
      mismatches += r.bases[i] != truth[i];
    }
    bases += 100;
  }
  const double rate = static_cast<double>(mismatches) / bases;
  EXPECT_NEAR(rate, 0.05, 0.01);
}

TEST(Simulator, FastqOutputParsesBack) {
  io::ScopedTempDir dir("lasagna-test");
  const std::string genome = random_genome(1000, 6);
  SequencingSpec spec;
  spec.read_length = 40;
  spec.coverage = 4.0;
  const std::uint64_t count =
      simulate_to_fastq(genome, spec, dir.file("sim.fq"));
  const auto records = io::read_sequence_file(dir.file("sim.fq"));
  EXPECT_EQ(records.size(), count);
  EXPECT_EQ(records[0].bases.size(), 40u);
  EXPECT_NE(records[0].id.find("pos="), std::string::npos);
}

TEST(Simulator, RejectsGenomeShorterThanRead) {
  SequencingSpec spec;
  spec.read_length = 100;
  EXPECT_THROW(simulate_reads("ACGT", spec), std::invalid_argument);
}

TEST(Datasets, PaperShapesPreserved) {
  const auto specs = paper_datasets(4096.0);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "H.Chr14");
  EXPECT_EQ(specs[0].read_length, 101u);
  EXPECT_EQ(specs[0].min_overlap, 63u);
  EXPECT_EQ(specs[1].name, "Bumblebee");
  EXPECT_EQ(specs[1].min_overlap, 85u);
  EXPECT_EQ(specs[2].name, "Parakeet");
  EXPECT_EQ(specs[2].read_length, 150u);
  EXPECT_EQ(specs[2].min_overlap, 111u);
  EXPECT_EQ(specs[3].name, "H.Genome");
  EXPECT_EQ(specs[3].min_overlap, 63u);

  // Scaled sizes keep the paper's relative ordering.
  EXPECT_LT(specs[0].total_bases(), specs[1].total_bases());
  EXPECT_LT(specs[1].total_bases(), specs[2].total_bases());
  EXPECT_LT(specs[2].total_bases(), specs[3].total_bases());
  // Scale 4096: H.Genome ~30 M bases.
  EXPECT_NEAR(static_cast<double>(specs[3].total_bases()), 124.75e9 / 4096,
              1e6);
  // Coverage survives scaling (H.Genome ~40x).
  EXPECT_NEAR(specs[3].coverage(), 40.0, 8.0);
}

TEST(Datasets, LookupByNameAndUnknownThrows) {
  EXPECT_EQ(paper_dataset("Parakeet").read_length, 150u);
  EXPECT_THROW(paper_dataset("E.Coli"), std::invalid_argument);
}

TEST(Datasets, MaterializeWritesFastqOnceAndCaches) {
  io::ScopedTempDir dir("lasagna-test");
  const DatasetSpec spec = paper_dataset("H.Chr14", 100000.0);
  const auto path = materialize_dataset(spec, dir.path());
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto size = std::filesystem::file_size(path);
  const auto again = materialize_dataset(spec, dir.path());
  EXPECT_EQ(again, path);
  EXPECT_EQ(std::filesystem::file_size(again), size);

  const auto records = io::read_sequence_file(path);
  EXPECT_EQ(records.size(), spec.read_count);
  EXPECT_EQ(records[0].bases.size(), spec.read_length);
}

}  // namespace
}  // namespace lasagna::seq
