// Unit + property tests: graph substrate and multiprogrammed replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "dram/controller.hpp"
#include "graph/graph.hpp"
#include "graph/multiprog.hpp"
#include "graph/workload.hpp"
#include "obs/scope.hpp"
#include "sys/system.hpp"

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

// --- CSR oracle -----------------------------------------------------------
//
// An independent CSR build: the generators' edge draws written out from
// their definitions, the pairs sorted with std::sort, offsets from a
// per-source count and a prefix sum. CsrGraph must match it exactly.

struct OracleGraph {
  std::vector<std::uint32_t> offsets;
  std::vector<NodeId> edges;
  std::size_t wrapped_to_zero = 0;  ///< u == v == nodes-1 draws (v -> 0).
  std::size_t duplicates = 0;       ///< Pairs equal to their predecessor.
  std::size_t empty_rows = 0;       ///< Nodes with no out-edges.
};

OracleGraph oracle_csr(NodeId nodes,
                       std::vector<std::pair<NodeId, NodeId>> pairs,
                       std::size_t wrapped_to_zero) {
  OracleGraph g;
  g.wrapped_to_zero = wrapped_to_zero;
  std::sort(pairs.begin(), pairs.end());
  std::vector<std::uint32_t> degree(nodes, 0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ++degree[pairs[i].first];
    g.edges.push_back(pairs[i].second);
    if (i > 0 && pairs[i] == pairs[i - 1]) ++g.duplicates;
  }
  g.offsets.push_back(0);
  for (NodeId u = 0; u < nodes; ++u) {
    g.offsets.push_back(g.offsets.back() + degree[u]);
    if (degree[u] == 0) ++g.empty_rows;
  }
  return g;
}

/// Self-loops move to the next node, wrapping past the last one.
NodeId skip_self_loop(NodeId u, NodeId v, NodeId nodes, std::size_t& wraps) {
  if (u != v) return v;
  if (v + 1 == nodes) ++wraps;
  return (v + 1) % nodes;
}

OracleGraph oracle_rmat(std::uint32_t scale, std::size_t edges,
                        std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const NodeId nodes = 1u << scale;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::size_t wraps = 0;
  for (std::size_t i = 0; i < edges; ++i) {
    NodeId u = 0;
    NodeId v = 0;
    for (std::uint32_t bit = 0; bit < scale; ++bit) {
      // Quadrants a = 0.57, b = 0.19, c = 0.19, d = 0.05.
      const double r = rng.uniform();
      if (r >= 0.57 + 0.19 + 0.19) {
        u += 1u << bit;
        v += 1u << bit;
      } else if (r >= 0.57 + 0.19) {
        u += 1u << bit;
      } else if (r >= 0.57) {
        v += 1u << bit;
      }
    }
    pairs.emplace_back(u, skip_self_loop(u, v, nodes, wraps));
  }
  return oracle_csr(nodes, std::move(pairs), wraps);
}

OracleGraph oracle_uniform(NodeId nodes, std::size_t edges,
                           std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::size_t wraps = 0;
  for (std::size_t i = 0; i < edges; ++i) {
    const auto u = static_cast<NodeId>(rng.below(nodes));
    const auto v = static_cast<NodeId>(rng.below(nodes));
    pairs.emplace_back(u, skip_self_loop(u, v, nodes, wraps));
  }
  return oracle_csr(nodes, std::move(pairs), wraps);
}

TEST(CsrOracle, RmatAndUniformMatchSortedPairsAtEveryScale) {
  OracleGraph seen;  // Edge cases met over all scales, summed.
  for (std::uint32_t scale = 1; scale <= 15; ++scale) {
    const NodeId nodes = 1u << scale;
    const std::size_t edges = 4ull << scale;
    const std::uint64_t seed = 1000 + scale;
    {
      util::Xoshiro256 rng(seed);
      const CsrGraph g = CsrGraph::rmat(scale, edges, rng);
      const OracleGraph want = oracle_rmat(scale, edges, seed);
      ASSERT_EQ(g.offsets(), want.offsets) << "rmat scale " << scale;
      ASSERT_EQ(g.edge_list(), want.edges) << "rmat scale " << scale;
      seen.wrapped_to_zero += want.wrapped_to_zero;
      seen.duplicates += want.duplicates;
      seen.empty_rows += want.empty_rows;
    }
    {
      util::Xoshiro256 rng(seed);
      const CsrGraph g = CsrGraph::uniform(nodes, edges, rng);
      const OracleGraph want = oracle_uniform(nodes, edges, seed);
      ASSERT_EQ(g.offsets(), want.offsets) << "uniform scale " << scale;
      ASSERT_EQ(g.edge_list(), want.edges) << "uniform scale " << scale;
      seen.wrapped_to_zero += want.wrapped_to_zero;
      seen.duplicates += want.duplicates;
    }
  }
  // The comparison covered each edge case of the CSR build.
  EXPECT_GT(seen.wrapped_to_zero, 0u);
  EXPECT_GT(seen.duplicates, 0u);
  EXPECT_GT(seen.empty_rows, 0u);
}

/// FNV-1a over the little-endian bytes of each value in turn.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  template <typename T>
  void add(T value) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h ^= static_cast<std::uint8_t>(static_cast<std::uint64_t>(value) >>
                                     (8 * i));
      h *= 0x100000001b3ull;
    }
  }
};

TEST(CsrOracle, PaperGraphIsPinned) {
  const std::shared_ptr<const CsrGraph> g = build_graph(MultiprogConfig{});
  Fnv1a d;
  for (const std::uint32_t o : g->offsets()) d.add(o);
  for (const NodeId e : g->edge_list()) d.add(e);
  EXPECT_EQ(d.h, 0x79f004d0d7a51745ull);
}

TEST(WorkloadTrace, PaperSeedTracesArePinned) {
  struct Pin {
    WorkloadKind kind;
    std::size_t ops;
    std::uint64_t checksum;
    std::uint64_t digest;
  };
  constexpr Pin kPins[] = {
      {WorkloadKind::kBC, 2063620, 37592000, 0x93f236add8fcf31eull},
      {WorkloadKind::kBFS, 566303, 17416, 0x8e5316c0fcf29947ull},
      {WorkloadKind::kCC, 1197185, 15302, 0x07f3993ddb0b63f3ull},
      {WorkloadKind::kTC, 6871491, 115507, 0xd8bca8e9850f3da3ull},
      {WorkloadKind::kPR, 1179648, 714850, 0x641b860c27e189c9ull},
      {WorkloadKind::kSSSP, 1756620, 96057, 0x9d7b1de15a43c217ull},
  };
  const std::shared_ptr<const CsrGraph> g = build_graph(MultiprogConfig{});
  for (const Pin& pin : kPins) {
    const WorkloadTrace t = build_trace(pin.kind, *g);
    Fnv1a d;
    for (const TraceOp& op : t.ops) {
      d.add(op.index);
      d.add(op.compute);
      d.add(op.pc);
      d.add(static_cast<std::uint8_t>(op.array));
      d.add(static_cast<std::uint8_t>(op.write));
    }
    EXPECT_EQ(t.ops.size(), pin.ops) << to_string(pin.kind);
    // Sized before emission: the trace never grew past its op count.
    EXPECT_EQ(t.ops.capacity(), pin.ops) << to_string(pin.kind);
    EXPECT_EQ(t.checksum, pin.checksum) << to_string(pin.kind);
    EXPECT_EQ(d.h, pin.digest) << to_string(pin.kind);
  }
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

// --- Filter once, replay DRAM per policy: an independent oracle ----------

/// One cell as the fused per-op loop sees it: RunStats, every bank's
/// stats, and the cell's obs snapshot.
struct CellOutcome {
  RunStats stats;
  std::vector<dram::BankStats> banks;
  obs::Snapshot snapshot;
};

/// The fused loop a full run used before the filter/replay split: one
/// MemorySystem holds both instances' TLBs, caches and the DRAM, and the
/// instances advance op by op through MemorySystem::load/store,
/// interleaved by start clock (ties to A). Arrays are mapped as a run maps
/// them: A owns the graph, B shares it, each maps its private arrays.
CellOutcome fused_run(const MultiprogConfig& config, const WorkloadInput& in,
                      const dram::DramConfig& dram) {
  constexpr dram::ActorId kActor[2] = {10, 11};
  CellOutcome out;
  obs::Scope scope;
  {
    sys::SystemConfig sc = config.system;
    sc.cores = 2;
    sc.dram = dram;
    sys::MemorySystem system(sc);
    sys::VirtualMemory& vmem = system.vmem();
    const auto span_of = [&](std::uint64_t elems) {
      return (elems * 4 + vmem.page_bytes() - 1) / vmem.page_bytes();
    };
    const std::uint64_t graph_elems[2] = {in.graph->nodes() + 1ull,
                                          in.graph->edges()};
    sys::VAddr base[2][kArrayRefCount] = {};
    for (int i = 0; i < 2; ++i) {
      for (int g = 0; g < 2; ++g) {
        if (i == 0) {
          base[0][g] = vmem.map_pages(kActor[0], span_of(graph_elems[g])).vaddr;
        } else {
          base[1][g] = base[0][g];
          vmem.share(kActor[0], kActor[1],
                     {base[0][g], span_of(graph_elems[g]) * vmem.page_bytes()});
        }
      }
      for (int p = 0; p < 3; ++p) {
        if (in.trace.private_elems[p] == 0) continue;
        base[i][2 + p] =
            vmem.map_pages(kActor[i], span_of(in.trace.private_elems[p])).vaddr;
      }
    }
    util::Cycle clock[2] = {0, 0};
    std::size_t next[2] = {0, 0};
    const std::size_t n = in.trace.ops.size();
    while (next[0] < n || next[1] < n) {
      const int i =
          next[1] >= n || (next[0] < n && clock[0] <= clock[1]) ? 0 : 1;
      const TraceOp& op = in.trace.ops[next[i]++];
      clock[i] += op.compute;
      out.stats.instructions += 1 + op.compute;
      const sys::VAddr addr =
          base[i][static_cast<std::size_t>(op.array)] + op.index * 4ull;
      if (op.write) {
        (void)system.store(kActor[i], addr, clock[i], op.pc);
      } else {
        (void)system.load(kActor[i], addr, clock[i], op.pc);
      }
    }
    out.stats.cycles = std::max(clock[0], clock[1]);
    out.stats.accesses = 2 * n;
    out.stats.llc_misses = system.hierarchy(kActor[0]).l3().stats().misses +
                           system.hierarchy(kActor[1]).l3().stats().misses;
    out.stats.row_hit_rate = system.controller().total_stats().hit_rate();
    for (dram::BankId b = 0; b < system.controller().banks(); ++b) {
      out.banks.push_back(system.controller().bank_stats(b));
    }
    obs::Registry& reg = scope.registry();
    reg.counter("graph.instructions").add(out.stats.instructions);
    reg.counter("graph.accesses").add(out.stats.accesses);
    reg.counter("graph.llc_misses").add(out.stats.llc_misses);
    reg.counter("graph.cycles").add(out.stats.cycles);
    reg.gauge("graph.row_hit_rate").set(out.stats.row_hit_rate);
    reg.gauge("graph.mpki").set(out.stats.mpki());
  }
  out.snapshot = scope.snapshot();
  return out;
}

/// The same cell through the split path: replay_dram of the two filtered
/// streams into a fresh controller built from `dram`.
CellOutcome split_run(const WorkloadInput& input, const DramStream& a,
                      const DramStream& b,
                      const dram::DramConfig& dram,
                      dram::MappingScheme mapping) {
  CellOutcome out;
  obs::Scope scope;
  {
    dram::MemoryController controller(dram, mapping);
    out.stats = replay_dram(input, a, b, controller);
    for (dram::BankId bank = 0; bank < controller.banks(); ++bank) {
      out.banks.push_back(controller.bank_stats(bank));
    }
  }
  out.snapshot = scope.snapshot();
  return out;
}

void expect_same_cell(const CellOutcome& split, const CellOutcome& fused) {
  EXPECT_EQ(split.stats, fused.stats);
  ASSERT_EQ(split.banks.size(), fused.banks.size());
  for (std::size_t b = 0; b < fused.banks.size(); ++b) {
    const dram::BankStats& s = split.banks[b];
    const dram::BankStats& f = fused.banks[b];
    EXPECT_TRUE(s.hits == f.hits && s.empties == f.empties &&
                s.conflicts == f.conflicts &&
                s.activations == f.activations && s.rowclones == f.rowclones)
        << "bank " << b;
  }
  EXPECT_EQ(split.snapshot.counters, fused.snapshot.counters);
  EXPECT_EQ(split.snapshot.gauges, fused.snapshot.gauges);
}

MultiprogConfig tiny_config() {
  MultiprogConfig config;
  config.rmat_scale = 10;
  config.edge_count = 1u << 13;
  return config;
}

class FilterReplayOracle : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(FilterReplayOracle, SplitMatchesFusedLoopUnderEveryPolicy) {
  const MultiprogConfig config = tiny_config();
  const WorkloadInput input = build_input(config, GetParam());
  const DramStream a = filter_instance(config, input, Instance::kA);
  const DramStream b = filter_instance(config, input, Instance::kB);
  EXPECT_GT(a.dram_ops, 0u);

  std::vector<dram::DramConfig> drams;
  for (const dram::RowPolicy policy :
       {dram::RowPolicy::kOpenRow, dram::RowPolicy::kClosedRow,
        dram::RowPolicy::kConstantTime, dram::RowPolicy::kAdaptive}) {
    dram::DramConfig d = config.system.dram;
    d.policy = policy;
    drams.push_back(d);
  }
  dram::DramConfig timeout = config.system.dram;
  timeout.timing.timeout_mode = dram::RowTimeoutMode::kIdlePrecharge;
  timeout.timing.row_timeout_ns = 100.0;
  drams.push_back(timeout);

  for (const dram::DramConfig& d : drams) {
    SCOPED_TRACE(std::string(to_string(d.policy)) +
                 (d.timing.timeout_mode == dram::RowTimeoutMode::kIdlePrecharge
                      ? " + idle-precharge timeout"
                      : ""));
    const CellOutcome fused = fused_run(config, input, d);
    expect_same_cell(split_run(input, a, b, d, config.system.mapping), fused);
    MultiprogConfig cell = config;
    cell.system.dram.timing = d.timing;
    EXPECT_EQ(run_multiprogrammed(cell, input, d.policy), fused.stats);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, FilterReplayOracle,
                         ::testing::ValuesIn(kExtendedWorkloads),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(FilterReplay, ReplayRejectsAConfigThatChangesTheFilter) {
  const MultiprogConfig config = tiny_config();
  const WorkloadInput input = build_input(config, WorkloadKind::kBFS);
  const DramStream a = filter_instance(config, input, Instance::kA);
  const DramStream b = filter_instance(config, input, Instance::kB);
  const auto policy = dram::RowPolicy::kClosedRow;

  MultiprogConfig scaled = config;
  scaled.system.cache_scale /= 2;
  EXPECT_THROW((void)replay_dram(scaled, input, a, b, policy),
               std::invalid_argument);
  MultiprogConfig remapped = config;
  remapped.system.mapping = dram::MappingScheme::kRowBankCol;
  EXPECT_THROW((void)replay_dram(remapped, input, a, b, policy),
               std::invalid_argument);
  MultiprogConfig reseeded = config;
  reseeded.system.seed += 1;
  EXPECT_THROW((void)replay_dram(reseeded, input, a, b, policy),
               std::invalid_argument);
  EXPECT_THROW((void)replay_dram(config, input, b, a, policy),
               std::invalid_argument);
  const WorkloadInput other = build_input(config, WorkloadKind::kPR);
  EXPECT_THROW((void)replay_dram(config, other, a, b, policy),
               std::invalid_argument);

  dram::DramConfig wider = config.system.dram;
  wider.banks_per_rank *= 2;
  dram::MemoryController controller(wider, config.system.mapping);
  EXPECT_THROW((void)replay_dram(input, a, b, controller),
               std::invalid_argument);

  // Policy and timing are what a replay may change.
  MultiprogConfig timed = config;
  timed.system.dram.timing.row_timeout_ns = 50.0;
  timed.system.dram.policy = dram::RowPolicy::kConstantTime;
  EXPECT_NO_THROW((void)replay_dram(timed, input, a, b, policy));
}

}  // namespace
}  // namespace impact::graph
