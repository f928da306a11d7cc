// Integration tests: the read-mapping side channel.
#include <gtest/gtest.h>

#include "attacks/side_channel.hpp"

namespace impact::attacks {
namespace {

SideChannelConfig small_config(std::uint32_t banks) {
  SideChannelConfig config;
  config.banks = banks;
  config.genome_length = 1ull << 17;
  config.reads = 8;
  config.table.buckets = 16384;
  return config;
}

TEST(SideChannelTest, LeaksVictimAccessesAtLowError) {
  ReadMappingSpy spy(small_config(1024));
  const auto r = spy.run();
  EXPECT_GT(r.probes.observations, 1000u);
  EXPECT_LT(r.probes.error_rate(), 0.06);  // Paper: <5% at 1024 banks.
  EXPECT_GT(r.probes.throughput_mbps(2.6), 3.0);
  EXPECT_GT(r.victim_seed_events, 100u);
  EXPECT_GT(r.capture_rate(), 0.15);
  EXPECT_GT(r.victim_accuracy, 0.5);
  EXPECT_GT(r.threshold, 0.0);
}

TEST(SideChannelTest, ErrorGrowsAndCaptureShrinksWithBanks) {
  ReadMappingSpy spy_small(small_config(1024));
  const auto small = spy_small.run();
  ReadMappingSpy spy_large(small_config(4096));
  const auto large = spy_large.run();
  EXPECT_GT(large.probes.error_rate(), small.probes.error_rate());
  EXPECT_LT(large.capture_rate(), small.capture_rate());
  EXPECT_LT(large.capture_throughput_mbps(2.6),
            small.capture_throughput_mbps(2.6));
}

TEST(SideChannelTest, PrecisionImprovesWithBanks) {
  ReadMappingSpy spy_small(small_config(1024));
  ReadMappingSpy spy_large(small_config(4096));
  const auto small = spy_small.run();
  const auto large = spy_large.run();
  EXPECT_EQ(small.precision.entries_per_bank, 16u);
  EXPECT_EQ(large.precision.entries_per_bank, 4u);
  EXPECT_GT(large.precision.bits_per_observation,
            small.precision.bits_per_observation);
}

TEST(SideChannelTest, DeterministicAcrossRuns) {
  ReadMappingSpy a(small_config(1024));
  ReadMappingSpy b(small_config(1024));
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.probes.observations, rb.probes.observations);
  EXPECT_EQ(ra.probes.correct, rb.probes.correct);
  EXPECT_EQ(ra.victim_seed_events, rb.victim_seed_events);
}

TEST(SideChannelTest, CamouflageDegradesAttackerAtProportionalCost) {
  auto cfg = small_config(1024);
  attacks::ReadMappingSpy undefended(cfg);
  const auto open = undefended.run();

  cfg.dummy_probes_per_touch = 4;
  attacks::ReadMappingSpy defended(cfg);
  const auto priv = defended.run();

  EXPECT_GT(priv.probes.error_rate(), 4 * open.probes.error_rate());
  EXPECT_GT(priv.probes.error_rate(), 0.25);
  EXPECT_GT(priv.victim_slowdown, 1.5);
  EXPECT_LT(priv.victim_slowdown, 6.0);
  EXPECT_DOUBLE_EQ(open.victim_slowdown, 1.0);
}

TEST(SideChannelTest, RejectsTinyDevices) {
  SideChannelConfig config;
  config.banks = 8;
  EXPECT_THROW(ReadMappingSpy{config}, std::invalid_argument);
}

TEST(SideChannelTest, RejectsAnEmptyWorkload) {
  auto config = small_config(1024);
  config.reads = 0;
  EXPECT_THROW(ReadMappingSpy{config}, std::invalid_argument);
}

TEST(SideChannelTest, RejectsABadSeedTableConfig) {
  auto config = small_config(8192);
  config.table.buckets = 12288;  // Not a multiple of 8192 banks.
  EXPECT_THROW(ReadMappingSpy{config}, std::invalid_argument);
  config = small_config(1024);
  config.table.entry_bytes = 1024;  // 16 entries x 1 KiB overflow the row.
  EXPECT_THROW(ReadMappingSpy{config}, std::invalid_argument);
  for (const std::uint32_t k : {0u, 32u}) {
    config = small_config(1024);
    config.table.minimizer.k = k;
    EXPECT_THROW(ReadMappingSpy{config}, std::invalid_argument) << k;
  }
}

TEST(SideChannelTest, ReadsShorterThanASeedEndInACleanError) {
  auto config = small_config(1024);
  config.readsim.read_length = config.table.minimizer.k - 1;
  ReadMappingSpy spy(config);
  EXPECT_THROW((void)spy.run(), std::invalid_argument);
}

}  // namespace
}  // namespace impact::attacks
