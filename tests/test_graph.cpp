// Unit + property tests: graph substrate and multiprogrammed replay.
#include <gtest/gtest.h>

#include <deque>

#include "graph/graph.hpp"
#include "graph/multiprog.hpp"
#include "graph/workload.hpp"

namespace impact::graph {
namespace {

TEST(CsrGraphTest, UniformGeneratorShape) {
  util::Xoshiro256 rng(1);
  const auto g = CsrGraph::uniform(100, 500, rng);
  EXPECT_EQ(g.nodes(), 100u);
  EXPECT_EQ(g.edges(), 500u);
  std::size_t degree_sum = 0;
  for (NodeId u = 0; u < g.nodes(); ++u) degree_sum += g.degree(u);
  EXPECT_EQ(degree_sum, 500u);
  for (std::size_t i = 0; i < g.edges(); ++i) EXPECT_LT(g.edge(i), 100u);
}

TEST(CsrGraphTest, RmatIsSkewed) {
  util::Xoshiro256 rng(2);
  const auto g = CsrGraph::rmat(12, 40000, rng);
  std::uint32_t max_degree = 0;
  for (NodeId u = 0; u < g.nodes(); ++u) {
    max_degree = std::max(max_degree, g.degree(u));
  }
  const double avg = 40000.0 / g.nodes();
  EXPECT_GT(max_degree, 10 * avg);  // Heavy-tailed degrees.
}

TEST(CsrGraphTest, GeneratorsAreDeterministic) {
  util::Xoshiro256 a(3);
  util::Xoshiro256 b(3);
  const auto g1 = CsrGraph::rmat(10, 5000, a);
  const auto g2 = CsrGraph::rmat(10, 5000, b);
  EXPECT_EQ(g1.offsets(), g2.offsets());
  EXPECT_EQ(g1.edge_list(), g2.edge_list());
}

TEST(CsrGraphTest, ValidationRejectsBadShape) {
  EXPECT_THROW(CsrGraph(2, {0, 1}, {0}), std::invalid_argument);
  EXPECT_THROW(CsrGraph(2, {0, 1, 3}, {0}), std::invalid_argument);
}

TEST(WorkloadTrace, BfsChecksumMatchesReferenceBfs) {
  util::Xoshiro256 rng(4);
  const auto g = CsrGraph::uniform(500, 4000, rng);
  const auto trace = build_trace(WorkloadKind::kBFS, g);
  // Independent BFS reachability count from node 0.
  std::vector<bool> seen(g.nodes(), false);
  std::deque<NodeId> q{0};
  seen[0] = true;
  std::uint64_t visited = 1;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop_front();
    for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
      const NodeId v = g.edge(i);
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        q.push_back(v);
      }
    }
  }
  EXPECT_EQ(trace.checksum, visited);
}

TEST(WorkloadTrace, CcChecksumIsComponentUpperBound) {
  util::Xoshiro256 rng(5);
  const auto g = CsrGraph::uniform(300, 2500, rng);
  const auto trace = build_trace(WorkloadKind::kCC, g);
  // Two label-propagation rounds over-approximate the final count but can
  // never report zero components or more than nodes.
  EXPECT_GE(trace.checksum, 1u);
  EXPECT_LE(trace.checksum, g.nodes());
}

TEST(WorkloadTrace, SsspChecksumMatchesDijkstra) {
  util::Xoshiro256 rng(44);
  const auto g = CsrGraph::uniform(200, 3000, rng);
  const auto trace = build_trace(WorkloadKind::kSSSP, g);
  // Reference: Bellman-Ford to convergence bounded by the same 3 rounds
  // (the trace kernel caps rounds, so compare against the same cap).
  constexpr std::uint64_t kInf = ~0ull;
  std::vector<std::uint64_t> dist(g.nodes(), kInf);
  dist[0] = 0;
  for (int round = 0; round < 3; ++round) {
    for (NodeId u = 0; u < g.nodes(); ++u) {
      if (dist[u] == kInf) continue;
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        const NodeId v = g.edge(i);
        dist[v] = std::min(dist[v], dist[u] + 1 + (v & 7));
      }
    }
  }
  std::uint64_t sum = 0;
  for (auto d : dist) {
    if (d != kInf) sum += d;
  }
  EXPECT_EQ(trace.checksum, sum);
}

TEST(WorkloadTrace, AllWorkloadsProduceWork) {
  util::Xoshiro256 rng(6);
  const auto g = CsrGraph::rmat(10, 8000, rng);
  for (const auto kind : kExtendedWorkloads) {
    const auto trace = build_trace(kind, g);
    EXPECT_GT(trace.ops.size(), g.nodes()) << to_string(kind);
    // Indices stay within the declared array sizes.
    for (const auto& op : trace.ops) {
      switch (op.array) {
        case ArrayRef::kOffsets:
          EXPECT_LE(op.index, g.nodes());
          break;
        case ArrayRef::kEdges:
          EXPECT_LT(op.index, g.edges());
          break;
        default: {
          const auto p =
              static_cast<std::size_t>(op.array) -
              static_cast<std::size_t>(ArrayRef::kPrivate0);
          ASSERT_LT(p, 3u);
          ASSERT_GT(trace.private_elems[p], 0u) << to_string(kind);
          EXPECT_LT(op.index, trace.private_elems[p]);
        }
      }
    }
  }
}

TEST(WorkloadTrace, TracesAreDeterministic) {
  util::Xoshiro256 rng(7);
  const auto g = CsrGraph::rmat(9, 4000, rng);
  const auto a = build_trace(WorkloadKind::kPR, g);
  const auto b = build_trace(WorkloadKind::kPR, g);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.ops.size(), b.ops.size());
}

class DefensePolicyOverhead
    : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(DefensePolicyOverhead, DefensesNeverSpeedUpAndCtdCostsMost) {
  MultiprogConfig config;
  config.rmat_scale = 11;  // Small but memory-visible at scaled caches.
  config.edge_count = 1u << 14;
  const WorkloadInput input = build_input(config, GetParam());
  const RunStats open_row =
      run_multiprogrammed(config, input, dram::RowPolicy::kOpenRow);
  const RunStats closed_row =
      run_multiprogrammed(config, input, dram::RowPolicy::kClosedRow);
  const RunStats constant_time =
      run_multiprogrammed(config, input, dram::RowPolicy::kConstantTime);
  EXPECT_GT(open_row.cycles, 0u);
  EXPECT_GE(closed_row.cycles, open_row.cycles);
  // Same open-row denominator, so this is also CTD overhead >= CRP's.
  EXPECT_GE(constant_time.cycles, closed_row.cycles);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DefensePolicyOverhead,
                         ::testing::ValuesIn(kAllWorkloads),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Multiprog, RunProducesStats) {
  MultiprogConfig config;
  config.rmat_scale = 10;
  config.edge_count = 1u << 13;
  const auto stats = run_multiprogrammed(config, WorkloadKind::kBFS,
                                         dram::RowPolicy::kOpenRow);
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_GT(stats.instructions, 0u);
  EXPECT_GT(stats.llc_misses, 0u);
  EXPECT_GT(stats.mpki(), 0.0);
  EXPECT_GT(stats.row_hit_rate, 0.0);
  EXPECT_LE(stats.row_hit_rate, 1.0);
  EXPECT_EQ(stats.accesses % 2, 0u);  // Two instances.
}

TEST(Multiprog, ConstantTimeHidesRowState) {
  MultiprogConfig config;
  config.rmat_scale = 10;
  config.edge_count = 1u << 13;
  const auto stats = run_multiprogrammed(config, WorkloadKind::kCC,
                                         dram::RowPolicy::kConstantTime);
  // Every DRAM access is padded: observable outcomes carry no hit signal.
  EXPECT_GT(stats.cycles, 0u);
}

}  // namespace
}  // namespace impact::graph
