// Defense evaluation demo (§6, Fig. 11): overhead of the closed-row and
// constant-time policies versus the baseline open-row policy on
// multiprogrammed graph workloads.
//
// The (workload, policy) grid is embarrassingly parallel; the
// store::CellRunner fans it out over IMPACT_THREADS workers (default:
// hardware concurrency) with bit-identical results to a serial run, and
// probes the content-addressed ResultCache per cell — point
// IMPACT_STORE_DIR at a directory and a second invocation replays from
// disk instead of simulating.
//
//   $ impact run defense_tradeoffs
//   $ IMPACT_THREADS=4 impact run defense_tradeoffs
//   $ IMPACT_STORE_DIR=/tmp/impact-store impact run defense_tradeoffs  # twice
#include <cstdio>
#include <iterator>
#include <vector>

#include "graph/multiprog.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

constexpr dram::RowPolicy kTradeoffPolicies[] = {
    dram::RowPolicy::kOpenRow, dram::RowPolicy::kClosedRow,
    dram::RowPolicy::kConstantTime};

int run_defense_tradeoffs(Context& ctx) {
  graph::MultiprogConfig config;  // Scaled Fig. 11 configuration.

  const auto grid = ctx.runner().defense_matrix(config, graph::kAllWorkloads,
                                                kTradeoffPolicies);
  if (!grid.ok()) {
    std::printf("sweep failed: %s\n", grid.report.summary().c_str());
    return 1;
  }

  util::Table table({"workload", "MPKI", "row-hit-rate", "CRP overhead",
                     "CTD overhead"});
  std::vector<double> crp;
  std::vector<double> ctd;
  for (std::size_t w = 0; w < std::size(graph::kAllWorkloads); ++w) {
    const graph::RunStats& open_row = grid.cells[w][0].stats;
    const auto overhead = [&](std::size_t p) {
      return open_row.cycles == 0
                 ? 0.0
                 : static_cast<double>(grid.cells[w][p].stats.cycles) /
                           static_cast<double>(open_row.cycles) -
                       1.0;
    };
    crp.push_back(overhead(1));
    ctd.push_back(overhead(2));
    table.add_row({to_string(graph::kAllWorkloads[w]),
                   util::Table::num(open_row.mpki()),
                   util::Table::num(open_row.row_hit_rate),
                   util::Table::num(100.0 * overhead(1), 1) + "%",
                   util::Table::num(100.0 * overhead(2), 1) + "%"});
  }
  std::printf("%s", table.render().c_str());
  double crp_avg = 0.0;
  double ctd_avg = 0.0;
  for (double v : crp) crp_avg += v / crp.size();
  for (double v : ctd) ctd_avg += v / ctd.size();
  std::printf("\naverage overhead: CRP %.1f%%  CTD %.1f%%  "
              "(paper: 15%% and 26%%)\n",
              100.0 * crp_avg, 100.0 * ctd_avg);
  return 0;
}

}  // namespace

void register_defense_tradeoffs(Registry& r) {
  ExperimentSpec spec;
  spec.name = "defense_tradeoffs";
  spec.description =
      "Fig. 11 methodology demo: CRP/CTD overhead vs open-row on the "
      "graph workloads";
  spec.kind = Kind::kExample;
  spec.cell_count = [](const Context&) {
    return std::size(graph::kAllWorkloads) * std::size(kTradeoffPolicies);
  };
  spec.run = run_defense_tradeoffs;
  r.add(std::move(spec));
}

}  // namespace impact::lab
