// Unit + property tests: the genomics substrate (genome, k-mers,
// minimizers, seed table, chaining, alignment, mapper).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "genomics/align.hpp"
#include "genomics/chain.hpp"
#include "genomics/genome.hpp"
#include "genomics/kmer.hpp"
#include "genomics/leak.hpp"
#include "genomics/mapper.hpp"
#include "genomics/seed_table.hpp"

namespace impact::genomics {
namespace {

TEST(GenomeTest, StringRoundTrip) {
  const auto g = Genome::from_string("ACGTAC");
  EXPECT_EQ(g.size(), 6u);
  EXPECT_EQ(g.to_string(), "ACGTAC");
  EXPECT_EQ(g.at(1), 1u);
  EXPECT_THROW(Genome::from_string("ACGN"), std::invalid_argument);
}

TEST(GenomeTest, SynthesizeIsDeterministicAndSized) {
  util::Xoshiro256 rng1(5);
  util::Xoshiro256 rng2(5);
  const auto a = Genome::synthesize(10000, rng1);
  const auto b = Genome::synthesize(10000, rng2);
  EXPECT_EQ(a.size(), 10000u);
  EXPECT_EQ(a.bases(), b.bases());
}

TEST(GenomeTest, SynthesizeContainsRepeats) {
  util::Xoshiro256 rng(5);
  const auto g = Genome::synthesize(200000, rng, 0.4);
  // Repeat content makes some 15-mers frequent: the most frequent 15-mer
  // should occur far more often than expected under uniform randomness.
  std::unordered_map<std::uint64_t, int> counts;
  for (std::size_t i = 0; i + 15 <= g.size(); i += 7) {
    ++counts[pack_kmer(g.bases(), i, 15)];
  }
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 5);
}

TEST(GenomeTest, SliceAndBounds) {
  const auto g = Genome::from_string("ACGTACGT");
  const auto s = g.slice(2, 3);
  EXPECT_EQ(Genome(s).to_string(), "GTA");
  EXPECT_THROW((void)g.slice(6, 3), std::invalid_argument);
}

TEST(ReadsTest, SampledReadsMatchOrigin) {
  util::Xoshiro256 rng(6);
  const auto g = Genome::synthesize(50000, rng);
  ReadSimConfig config;
  config.substitution_rate = 0.0;
  const auto reads = sample_reads(g, 20, config, rng);
  EXPECT_EQ(reads.size(), 20u);
  for (const auto& r : reads) {
    EXPECT_EQ(r.bases, g.slice(r.true_position, config.read_length));
  }
}

TEST(ReadsTest, ErrorsPerturbBases) {
  util::Xoshiro256 rng(6);
  const auto g = Genome::synthesize(50000, rng);
  ReadSimConfig config;
  config.substitution_rate = 0.2;
  const auto reads = sample_reads(g, 10, config, rng);
  std::size_t mismatches = 0;
  std::size_t total = 0;
  for (const auto& r : reads) {
    const auto truth = g.slice(r.true_position, config.read_length);
    for (std::size_t i = 0; i < truth.size(); ++i) {
      mismatches += (truth[i] != r.bases[i]);
      ++total;
    }
  }
  const double rate = static_cast<double>(mismatches) / total;
  EXPECT_GT(rate, 0.10);
  EXPECT_LT(rate, 0.25);  // 0.2 * 3/4 expected observable rate.
}

class KmerProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KmerProperty, RevCompIsInvolution) {
  const std::uint32_t k = GetParam();
  util::Xoshiro256 rng(31);
  for (int i = 0; i < 200; ++i) {
    const Kmer kmer = rng.below(1ull << (2 * k));
    EXPECT_EQ(revcomp_kmer(revcomp_kmer(kmer, k), k), kmer);
  }
}

TEST_P(KmerProperty, CanonicalIsStrandInvariant) {
  const std::uint32_t k = GetParam();
  util::Xoshiro256 rng(32);
  for (int i = 0; i < 200; ++i) {
    const Kmer kmer = rng.below(1ull << (2 * k));
    EXPECT_EQ(canonical_kmer(kmer, k),
              canonical_kmer(revcomp_kmer(kmer, k), k));
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KmerProperty,
                         ::testing::Values(5u, 11u, 15u, 21u));

TEST(KmerTest, PackKnownValues) {
  const auto seq = Genome::from_string("ACGT").bases();
  EXPECT_EQ(pack_kmer(seq, 0, 4), 0b00'01'10'11u);
  EXPECT_EQ(pack_kmer(seq, 1, 2), 0b01'10u);
  EXPECT_THROW((void)pack_kmer(seq, 2, 4), std::invalid_argument);
}

TEST(KmerTest, RevCompKnownValue) {
  // revcomp(ACGT) = ACGT (palindrome).
  const auto seq = Genome::from_string("ACGT").bases();
  const Kmer kmer = pack_kmer(seq, 0, 4);
  EXPECT_EQ(revcomp_kmer(kmer, 4), kmer);
}

TEST(MinimizerTest, CoversEveryWindow) {
  util::Xoshiro256 rng(33);
  const auto g = Genome::synthesize(5000, rng);
  MinimizerConfig config{15, 10};
  const auto minimizers = extract_minimizers(g.bases(), config);
  ASSERT_FALSE(minimizers.empty());
  // Property: consecutive selected positions are at most w apart, so every
  // window of w k-mers contains a selected minimizer.
  for (std::size_t i = 1; i < minimizers.size(); ++i) {
    EXPECT_LE(minimizers[i].position - minimizers[i - 1].position,
              config.w);
    EXPECT_GT(minimizers[i].position, minimizers[i - 1].position);
  }
}

TEST(MinimizerTest, DensityNearTwoOverW) {
  util::Xoshiro256 rng(34);
  const auto g = Genome::synthesize(100000, rng, 0.0);
  MinimizerConfig config{15, 10};
  const auto minimizers = extract_minimizers(g.bases(), config);
  const double density =
      static_cast<double>(minimizers.size()) / g.size();
  EXPECT_NEAR(density, 2.0 / (config.w + 1), 0.05);
}

TEST(MinimizerTest, ShortSequenceYieldsNothing) {
  const auto g = Genome::from_string("ACGT");
  EXPECT_TRUE(extract_minimizers(g.bases(), MinimizerConfig{15, 10}).empty());
}

TEST(MinimizerTest, RejectsKOutsideOneToThirtyOne) {
  const auto seq = Genome::from_string("ACGTACGTACGTACGTACGTACGTACGTACGTACGT")
                       .bases();
  EXPECT_THROW((void)extract_minimizers(seq, MinimizerConfig{0, 10}),
               std::invalid_argument);
  EXPECT_THROW((void)extract_minimizers(seq, MinimizerConfig{32, 10}),
               std::invalid_argument);
  EXPECT_THROW((void)extract_minimizers(seq, MinimizerConfig{15, 0}),
               std::invalid_argument);
  // A sequence too short to hold one k-mer is still checked.
  EXPECT_THROW((void)extract_minimizers({}, MinimizerConfig{0, 10}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)extract_minimizers(seq, MinimizerConfig{31, 1}));
  EXPECT_NO_THROW((void)extract_minimizers(seq, MinimizerConfig{1, 1}));
}

// Independent oracle for extract_minimizers: every window is scored from
// scratch with pack_kmer -> canonical_kmer -> hash64 (no rolling k-mers, no
// window state). The smallest hash wins, the latest position among equal
// hashes, and a window repeating the previous window's pick adds nothing.
std::vector<Minimizer> naive_minimizers(const std::vector<Base>& seq,
                                        std::uint32_t k, std::uint32_t w) {
  std::vector<Minimizer> out;
  if (seq.size() < k) return out;
  const std::size_t n_kmers = seq.size() - k + 1;
  for (std::size_t start = 0; start + w <= n_kmers; ++start) {
    Minimizer pick{};
    for (std::size_t pos = start; pos < start + w; ++pos) {
      const std::uint64_t h =
          hash64(canonical_kmer(pack_kmer(seq, pos, k), k));
      if (pos == start || h <= pick.hash) {
        pick = Minimizer{h, static_cast<std::uint32_t>(pos)};
      }
    }
    if (out.empty() || !(out.back() == pick)) out.push_back(pick);
  }
  return out;
}

TEST(MinimizerOracle, MatchesNaiveWindowScan) {
  std::size_t compared = 0;
  std::uint64_t seed = 900;
  for (const double repeats : {0.0, 0.5, 0.9}) {
    util::Xoshiro256 rng(++seed);
    const auto genome = Genome::synthesize(3000, rng, repeats);
    for (const std::uint32_t k : {1u, 2u, 5u, 15u, 31u}) {
      for (const std::uint32_t w : {1u, 2u, 10u, 40u}) {
        for (const std::size_t len :
             {std::size_t{k} - 1, std::size_t{k}, std::size_t{k} + w - 1,
              std::size_t{k} + w, genome.size()}) {
          const std::vector<Base> seq(
              genome.bases().begin(),
              genome.bases().begin() + static_cast<std::ptrdiff_t>(len));
          const auto got = extract_minimizers(seq, MinimizerConfig{k, w});
          ASSERT_EQ(got, naive_minimizers(seq, k, w))
              << "repeats=" << repeats << " k=" << k << " w=" << w
              << " len=" << len;
          compared += got.size();
        }
      }
    }
  }
  EXPECT_GT(compared, 10000u);
}

TEST(MinimizerOracle, EqualHashesPickTheLatestPosition) {
  // Every k-mer of a homopolymer is the same, so every hash ties: each
  // window picks its last k-mer and every window after the first moves on.
  const auto seq = Genome::from_string(std::string(40, 'A')).bases();
  const auto got = extract_minimizers(seq, MinimizerConfig{5, 4});
  ASSERT_EQ(got, naive_minimizers(seq, 5, 4));
  ASSERT_EQ(got.size(), 40u - 5u + 1u - 4u + 1u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].position, i + 3);
  }
}

TEST(SeedTableTest, RejectsKOutsideOneToThirtyOne) {
  for (const std::uint32_t k : {0u, 32u}) {
    SeedTableConfig config;
    config.minimizer.k = k;
    EXPECT_THROW(SeedTable(config, 1024), std::invalid_argument) << k;
  }
}

TEST(SeedTableTest, GeometryMatchesPaper) {
  // §5.4: 16 entries/row at 1024 banks, 8 at 2048.
  SeedTableConfig config;
  SeedTable t1024(config, 1024);
  EXPECT_EQ(t1024.entries_per_bank(), 16u);
  SeedTable t2048(config, 2048);
  EXPECT_EQ(t2048.entries_per_bank(), 8u);
  EXPECT_THROW(SeedTable(config, 1000), std::invalid_argument);  // Divides?
}

TEST(SeedTableTest, LocateLaysEntriesInOneRowPerBank) {
  SeedTableConfig config;
  SeedTable table(config, 1024);
  const auto a = table.locate(0);
  const auto b = table.locate(1024);  // Same bank, next entry.
  EXPECT_EQ(a.bank, 0u);
  EXPECT_EQ(b.bank, 0u);
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(b.col - a.col, config.entry_bytes);
  EXPECT_LT(b.col + config.entry_bytes, config.row_bytes + 1);
  EXPECT_EQ(table.locate(5).bank, 5u);
}

TEST(SeedTableTest, QueryReturnsIndexedPositions) {
  util::Xoshiro256 rng(35);
  const auto g = Genome::synthesize(100000, rng);
  SeedTableConfig config;
  SeedTable table(config, 1024);
  table.build(g);
  EXPECT_GT(table.total_positions(), 1000u);
  EXPECT_GT(table.occupancy(), 0.3);
  // Every reference minimizer must be findable through its own hash.
  const auto minimizers = extract_minimizers(g.bases(), config.minimizer);
  std::size_t found = 0;
  for (std::size_t i = 0; i < 50 && i < minimizers.size(); ++i) {
    const auto positions = table.query(minimizers[i].hash);
    for (auto p : positions) found += (p == minimizers[i].position);
  }
  EXPECT_GT(found, 40u);  // A few may be capped out of full buckets.
}

TEST(ChainTest, PerfectColinearAnchorsChainFully) {
  std::vector<Anchor> anchors;
  for (std::uint32_t i = 0; i < 10; ++i) {
    anchors.push_back(Anchor{i * 20, 1000 + i * 20, 15});
  }
  const auto chain = chain_anchors(anchors);
  EXPECT_EQ(chain.anchors.size(), 10u);
  EXPECT_EQ(chain.predicted_start(), 1000);
  EXPECT_NEAR(chain.score, 150.0, 1e-9);
}

TEST(ChainTest, OutlierAnchorsAreExcluded) {
  std::vector<Anchor> anchors;
  for (std::uint32_t i = 0; i < 6; ++i) {
    anchors.push_back(Anchor{i * 20, 1000 + i * 20, 15});
  }
  anchors.push_back(Anchor{50, 90000, 15});  // Far-away decoy.
  const auto chain = chain_anchors(anchors);
  EXPECT_EQ(chain.anchors.size(), 6u);
  EXPECT_EQ(chain.predicted_start(), 1000);
}

TEST(ChainTest, EmptyInput) {
  const auto chain = chain_anchors({});
  EXPECT_TRUE(chain.anchors.empty());
  EXPECT_EQ(chain.predicted_start(), -1);
}

TEST(ChainTest, GapPenaltyPrefersTighterChain) {
  // Two competing chains: tight (3 anchors) vs gappy (3 anchors with large
  // indel offsets).
  std::vector<Anchor> anchors = {
      {0, 1000, 15},  {20, 1020, 15},  {40, 1040, 15},
      {0, 5000, 15},  {20, 5400, 15},  {40, 5800, 15},
  };
  ChainConfig config;
  config.gap_penalty = 0.05;
  const auto chain = chain_anchors(anchors, config);
  EXPECT_EQ(chain.predicted_start(), 1000);
}

TEST(AlignTest, IdenticalSequencesHaveZeroDistance) {
  const auto s = Genome::from_string("ACGTACGTGG").bases();
  const auto r = banded_edit_distance(s, s);
  EXPECT_EQ(r.edit_distance, 0u);
  EXPECT_TRUE(r.within_band);
}

TEST(AlignTest, KnownEditDistances) {
  const auto a = Genome::from_string("ACGT").bases();
  const auto sub = Genome::from_string("AGGT").bases();
  EXPECT_EQ(banded_edit_distance(a, sub).edit_distance, 1u);
  const auto ins = Genome::from_string("ACGGT").bases();
  EXPECT_EQ(banded_edit_distance(a, ins).edit_distance, 1u);
  const auto del = Genome::from_string("ACT").bases();
  EXPECT_EQ(banded_edit_distance(a, del).edit_distance, 1u);
  const auto far = Genome::from_string("TTTT").bases();
  EXPECT_EQ(banded_edit_distance(a, far).edit_distance, 3u);
}

TEST(AlignTest, BandEscapeIsReported) {
  const auto a = Genome::from_string("AAAAAAAAAA").bases();
  const auto b = Genome::from_string("AA").bases();
  const auto r = banded_edit_distance(a, b, AlignConfig{2});
  EXPECT_FALSE(r.within_band);
}

TEST(AlignTest, AgreesWithFullDpOnRandomPairs) {
  util::Xoshiro256 rng(36);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Base> a(24);
    std::vector<Base> b(24);
    for (auto& x : a) x = static_cast<Base>(rng.below(4));
    b = a;
    // Few random substitutions keep the optimum inside the band.
    for (int e = 0; e < 3; ++e) {
      b[rng.below(b.size())] = static_cast<Base>(rng.below(4));
    }
    // Reference full DP.
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    std::vector<std::vector<std::uint32_t>> dp(
        n + 1, std::vector<std::uint32_t>(m + 1, 0));
    for (std::size_t i = 0; i <= n; ++i) dp[i][0] = i;
    for (std::size_t j = 0; j <= m; ++j) dp[0][j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
      for (std::size_t j = 1; j <= m; ++j) {
        dp[i][j] = std::min({dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                             dp[i - 1][j - 1] +
                                 (a[i - 1] == b[j - 1] ? 0u : 1u)});
      }
    }
    EXPECT_EQ(banded_edit_distance(a, b, AlignConfig{16}).edit_distance,
              dp[n][m]);
  }
}

TEST(TracebackTest, CigarForKnownCases) {
  const auto a = Genome::from_string("ACGT").bases();
  auto r = banded_align(a, a);
  EXPECT_EQ(r.edit_distance, 0u);
  EXPECT_EQ(r.cigar, "4M");
  r = banded_align(a, Genome::from_string("AGGT").bases());
  EXPECT_EQ(r.edit_distance, 1u);
  EXPECT_EQ(r.cigar, "4M");  // Substitution stays an M column.
  r = banded_align(a, Genome::from_string("ACGGT").bases());
  EXPECT_EQ(r.edit_distance, 1u);
  EXPECT_TRUE(cigar_consistent(r.cigar, 4, 5));
  r = banded_align(a, Genome::from_string("ACT").bases());
  EXPECT_EQ(r.edit_distance, 1u);
  EXPECT_TRUE(cigar_consistent(r.cigar, 4, 3));
}

TEST(TracebackTest, MatchesBandedDistanceOnRandomPairs) {
  util::Xoshiro256 rng(47);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Base> a(30);
    for (auto& x : a) x = static_cast<Base>(rng.below(4));
    std::vector<Base> b = a;
    for (int e = 0; e < 4; ++e) {
      const auto kind = rng.below(3);
      const auto pos = rng.below(b.size());
      if (kind == 0) {
        b[pos] = static_cast<Base>(rng.below(4));
      } else if (kind == 1 && b.size() > 20) {
        b.erase(b.begin() + static_cast<std::ptrdiff_t>(pos));
      } else {
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(pos),
                 static_cast<Base>(rng.below(4)));
      }
    }
    const auto fast = banded_edit_distance(a, b, AlignConfig{16});
    const auto full = banded_align(a, b, AlignConfig{16});
    EXPECT_EQ(full.edit_distance, fast.edit_distance);
    EXPECT_TRUE(cigar_consistent(full.cigar, a.size(), b.size()))
        << full.cigar;
  }
}

TEST(TracebackTest, CigarConsistencyChecker) {
  EXPECT_TRUE(cigar_consistent("4M", 4, 4));
  EXPECT_TRUE(cigar_consistent("2M1I2M", 4, 5));
  EXPECT_TRUE(cigar_consistent("2M1D1M", 4, 3));
  EXPECT_FALSE(cigar_consistent("4M", 4, 5));
  EXPECT_FALSE(cigar_consistent("M", 1, 1));    // Missing run length.
  EXPECT_FALSE(cigar_consistent("4X", 4, 4));   // Unknown op.
  EXPECT_FALSE(cigar_consistent("4", 4, 4));    // Dangling run.
}

TEST(TracebackTest, BandEscapeReported) {
  const auto a = Genome::from_string("AAAAAAAAAAAA").bases();
  const auto b = Genome::from_string("AA").bases();
  const auto r = banded_align(a, b, AlignConfig{2});
  EXPECT_FALSE(r.within_band);
}

TEST(MapperTest, MapsCleanReadsAccurately) {
  util::Xoshiro256 rng(37);
  const auto g = Genome::synthesize(1 << 18, rng);
  SeedTableConfig table_config;
  SeedTable table(table_config, 1024);
  table.build(g);
  ReferenceLayout layout{1024, 32, 8192, 8192 * 4};
  ReadMapper mapper(g, table, layout);
  ReadSimConfig read_config;
  read_config.substitution_rate = 0.0;
  auto reads = sample_reads(g, 50, read_config, rng);
  EXPECT_GT(mapping_accuracy(mapper, reads, 5), 0.85);
}

TEST(MapperTest, ToleratesSequencingErrors) {
  util::Xoshiro256 rng(38);
  const auto g = Genome::synthesize(1 << 18, rng);
  SeedTableConfig table_config;
  SeedTable table(table_config, 1024);
  table.build(g);
  ReferenceLayout layout{1024, 32, 8192, 8192 * 4};
  ReadMapper mapper(g, table, layout);
  ReadSimConfig read_config;
  read_config.substitution_rate = 0.01;
  auto reads = sample_reads(g, 50, read_config, rng);
  EXPECT_GT(mapping_accuracy(mapper, reads, 5), 0.7);
}

TEST(MapperTest, TouchSinkSeesSeedProbesInTableRow) {
  util::Xoshiro256 rng(39);
  const auto g = Genome::synthesize(1 << 16, rng);
  SeedTableConfig table_config;
  SeedTable table(table_config, 1024);
  table.build(g);
  ReferenceLayout layout{1024, 32, 8192, 8192 * 4};
  std::vector<MemoryTouch> touches;
  ReadMapper mapper(g, table, layout, MapperConfig{},
                    [&](const MemoryTouch& t) { touches.push_back(t); });
  ReadSimConfig read_config;
  const auto reads = sample_reads(g, 3, read_config, rng);
  for (const auto& r : reads) (void)mapper.map(r);
  ASSERT_FALSE(touches.empty());
  bool saw_seed = false;
  bool saw_ref = false;
  for (const auto& t : touches) {
    if (t.kind == MemoryTouch::Kind::kSeedProbe) {
      saw_seed = true;
      EXPECT_EQ(t.location.row, table_config.table_row);
      EXPECT_EQ(t.location, table.locate(t.bucket));
    } else {
      saw_ref = true;
      EXPECT_GE(t.location.row, layout.base_row);
    }
  }
  EXPECT_TRUE(saw_seed);
  EXPECT_TRUE(saw_ref);
}

TEST(LeakPrecisionTest, BitsGrowWithBankCount) {
  SeedTableConfig config;
  const auto p1 = LeakPrecision::of(SeedTable(config, 1024));
  const auto p8 = LeakPrecision::of(SeedTable(config, 8192));
  EXPECT_EQ(p1.entries_per_bank, 16u);
  EXPECT_EQ(p8.entries_per_bank, 2u);
  EXPECT_NEAR(p1.bits_per_observation, 10.0, 1e-9);
  EXPECT_NEAR(p8.bits_per_observation, 13.0, 1e-9);
}

}  // namespace
}  // namespace impact::genomics
