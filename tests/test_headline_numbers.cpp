// Golden regression tests: pin the headline reproduction numbers so that
// future substrate changes that silently break the calibration fail
// loudly. Tolerances are deliberately tight around the values recorded in
// EXPERIMENTS.md (everything is seeded and deterministic, so drift means
// a semantic change, not noise).
#include <gtest/gtest.h>

#include "attacks/registry.hpp"
#include "dram/config.hpp"
#include "exec/thread_pool.hpp"
#include "graph/multiprog.hpp"
#include "store/cell_runner.hpp"

namespace impact {
namespace {

double attack_mbps(attacks::AttackKind kind, std::uint64_t llc_mb = 8) {
  sys::SystemConfig config;
  config.llc_bytes = llc_mb << 20;
  config.mapping = attacks::recommended_mapping(kind);
  sys::MemorySystem system(config);
  auto attack = attacks::make_attack(kind, system);
  return attack->measure(64, 12, 21).throughput_mbps(config.frequency());
}

TEST(Headline, RowBufferTimingGap) {
  const auto timing = dram::DramConfig{}.derived_timing();
  EXPECT_EQ(timing.conflict_latency() - timing.hit_latency(), 72u);
}

TEST(Headline, ImpactPnmThroughput) {
  // Paper: 12.87 Mb/s; recorded: 13.57.
  EXPECT_NEAR(attack_mbps(attacks::AttackKind::kImpactPnm), 13.57, 0.5);
}

TEST(Headline, ImpactPumThroughput) {
  // Paper: 14.16 Mb/s; recorded: 14.45.
  EXPECT_NEAR(attack_mbps(attacks::AttackKind::kImpactPum), 14.45, 0.5);
}

TEST(Headline, DmaEngineThroughput) {
  // Paper: 5.27 Mb/s; recorded: 5.02.
  EXPECT_NEAR(attack_mbps(attacks::AttackKind::kDmaEngine), 5.02, 0.4);
}

TEST(Headline, DramaClflushDeclineAndRatio) {
  // Recorded: 5.81 (2 MB) -> 3.43 (64 MB); IMPACT-PnM / worst >= ~3.9x.
  const double small = attack_mbps(attacks::AttackKind::kDramaClflush, 2);
  const double large = attack_mbps(attacks::AttackKind::kDramaClflush, 64);
  EXPECT_NEAR(small, 5.81, 0.5);
  EXPECT_NEAR(large, 3.43, 0.5);
  const double pnm = attack_mbps(attacks::AttackKind::kImpactPnm, 64);
  EXPECT_GT(pnm / large, 3.5);
}

TEST(Headline, DefenseOverheadViaCellRunner) {
  // Fig. 11 trend at reduced scale (8x smaller input keeps this test in
  // CI-friendly time): CTD costs more than CRP on every workload, with
  // both averages pinned at the recorded values for this configuration
  // (full scale records CRP 13.6% / CTD 26.1%; see `impact run fig11`).
  // Run through store::CellRunner — the same grid driver fig11 uses —
  // with the cache disabled so every cell simulates.
  graph::MultiprogConfig config;
  config.rmat_scale = 12;
  config.edge_count = 32768;
  // Shrink the hierarchy with the input to stay conflict-bound (the
  // regime where the defenses cost anything).
  config.system.cache_scale = 512;
  constexpr dram::RowPolicy kPolicies[] = {dram::RowPolicy::kOpenRow,
                                           dram::RowPolicy::kClosedRow,
                                           dram::RowPolicy::kConstantTime};
  exec::ThreadPool pool;
  store::ResultCache::Options disabled;
  disabled.enabled = false;
  store::ResultCache cache(disabled);
  store::WorkloadStore workloads;
  store::CellRunner runner(cache, workloads, &pool);
  const auto grid =
      runner.defense_matrix(config, graph::kAllWorkloads, kPolicies);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid.cells.size(), std::size(graph::kAllWorkloads));
  const auto overhead = [](const graph::RunStats& defended,
                           const graph::RunStats& open_row) {
    return static_cast<double>(defended.cycles) /
               static_cast<double>(open_row.cycles) -
           1.0;
  };
  const double n = static_cast<double>(grid.cells.size());
  double crp_avg = 0.0;
  double ctd_avg = 0.0;
  for (std::size_t w = 0; w < grid.cells.size(); ++w) {
    const auto kind = to_string(graph::kAllWorkloads[w]);
    const graph::RunStats& open_row = grid.cells[w][0].stats;
    ASSERT_GT(open_row.cycles, 0u) << kind;
    const double crp = overhead(grid.cells[w][1].stats, open_row);
    const double ctd = overhead(grid.cells[w][2].stats, open_row);
    EXPECT_GE(ctd, crp) << kind;
    crp_avg += crp / n;
    ctd_avg += ctd / n;
  }
  EXPECT_NEAR(crp_avg, 0.0725, 0.02);
  EXPECT_NEAR(ctd_avg, 0.1253, 0.02);

  // Independent oracle: each cell of one workload agrees bit-for-bit with
  // a direct run that bypasses the runner, the sweep and the input store
  // (same seeds, fresh system per cell).
  for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
    EXPECT_EQ(grid.cells[1][p].stats,
              graph::run_multiprogrammed(config, graph::kAllWorkloads[1],
                                         kPolicies[p]))
        << to_string(kPolicies[p]);
  }
}

TEST(Headline, ImpactIsLlcSizeInvariant) {
  const double at2 = attack_mbps(attacks::AttackKind::kImpactPum, 2);
  const double at64 = attack_mbps(attacks::AttackKind::kImpactPum, 64);
  EXPECT_DOUBLE_EQ(at2, at64);  // Exactly flat: no cache on the path.
}

}  // namespace
}  // namespace impact
