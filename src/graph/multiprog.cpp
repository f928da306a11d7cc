#include "graph/multiprog.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "obs/scope.hpp"
#include "util/assert.hpp"

namespace impact::graph {

namespace {

constexpr dram::ActorId kInstanceA = 10;
constexpr dram::ActorId kInstanceB = 11;

/// Virtual bases of the replayed arrays for one instance.
struct ArrayMap {
  sys::VAddr base[kArrayRefCount] = {};
};

/// Maps the shared input (owned by instance A, shared into B) and the
/// private arrays of one instance.
ArrayMap map_arrays(sys::MemorySystem& system, const CsrGraph& graph,
                    const WorkloadTrace& trace, dram::ActorId actor,
                    const ArrayMap* shared_from) {
  auto& vmem = system.vmem();
  ArrayMap m;
  const auto pages = [&](std::uint64_t bytes) {
    return (bytes + vmem.page_bytes() - 1) / vmem.page_bytes();
  };

  if (shared_from == nullptr) {
    const auto off_span = vmem.map_pages(
        actor, pages((graph.nodes() + 1) * sizeof(std::uint32_t)));
    const auto edge_span =
        vmem.map_pages(actor, pages(graph.edges() * sizeof(NodeId)));
    m.base[0] = off_span.vaddr;
    m.base[1] = edge_span.vaddr;
  } else {
    // Share instance A's graph frames (same vaddrs, same banks).
    m.base[0] = shared_from->base[0];
    m.base[1] = shared_from->base[1];
    const sys::VSpan off_span{
        shared_from->base[0],
        pages((graph.nodes() + 1) * sizeof(std::uint32_t)) *
            vmem.page_bytes()};
    const sys::VSpan edge_span{
        shared_from->base[1],
        pages(graph.edges() * sizeof(NodeId)) * vmem.page_bytes()};
    vmem.share(kInstanceA, actor, off_span);
    vmem.share(kInstanceA, actor, edge_span);
  }
  for (int p = 0; p < 3; ++p) {
    if (trace.private_elems[p] == 0) continue;
    const auto span = vmem.map_pages(
        actor, pages(trace.private_elems[p] * 4ull));
    m.base[2 + p] = span.vaddr;
  }
  return m;
}

/// Replays one op for an instance through its cached access port,
/// advancing its clock.
void replay_op(sys::MemorySystem::AccessPort& port, const ArrayMap& map,
               const TraceOp& op, util::Cycle& clock,
               std::uint64_t& instructions) {
  clock += op.compute;
  // Rough instruction accounting: the access itself plus the surrounding
  // arithmetic (~1 instruction per modeled compute cycle on this core).
  instructions += 1 + op.compute;
  const sys::VAddr addr =
      map.base[static_cast<std::size_t>(op.array)] + op.index * 4ull;
  if (op.write) {
    (void)port.store(addr, clock, op.pc);
  } else {
    (void)port.load(addr, clock, op.pc);
  }
}

}  // namespace

WorkloadInput build_input(const MultiprogConfig& config, WorkloadKind kind) {
  util::Xoshiro256 rng(config.graph_seed);
  WorkloadInput input;
  input.graph = CsrGraph::rmat(config.rmat_scale, config.edge_count, rng);
  input.trace = build_trace(kind, input.graph);
  util::check(!input.trace.ops.empty(), "build_input: empty trace");
  return input;
}

RunStats run_multiprogrammed(const MultiprogConfig& config,
                             const WorkloadInput& input,
                             dram::RowPolicy policy) {
  // Fresh system per run: Fig. 11 is a 2-core configuration. Constructing
  // it here (not sharing across cells) is what makes concurrent cells of a
  // sweep independent — and therefore schedule-invariant.
  sys::SystemConfig sys_config = config.system;
  sys_config.cores = 2;
  sys_config.dram.policy = policy;
  sys::MemorySystem system(sys_config);

  const CsrGraph& graph = input.graph;
  const WorkloadTrace& trace = input.trace;
  util::check(!trace.ops.empty(), "run_multiprogrammed: empty trace");

  const ArrayMap map_a =
      map_arrays(system, graph, trace, kInstanceA, nullptr);
  const ArrayMap map_b =
      map_arrays(system, graph, trace, kInstanceB, &map_a);

  RunStats stats;
  util::Cycle clock_a = 0;
  util::Cycle clock_b = 0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  const std::size_t n = trace.ops.size();
  // Cached per-instance CPU paths: the replay loop below is the hottest
  // consumer of MemorySystem::load/store in the repo (Fig. 11 sweeps
  // replay millions of ops per cell).
  sys::MemorySystem::AccessPort port_a = system.port(kInstanceA);
  sys::MemorySystem::AccessPort port_b = system.port(kInstanceB);
  // Interleave the two instances by simulated time so their DRAM traffic
  // contends realistically on the shared banks. Each turn replays a *run*
  // of ops — the instance keeps going while it stays behind the other's
  // clock (or the other is done) — which picks exactly the op sequence the
  // per-op formulation would, with one turn decision per run instead of
  // per op.
  while (ia < n || ib < n) {
    const bool a_turn = ib >= n || (ia < n && clock_a <= clock_b);
    if (a_turn) {
      do {
        replay_op(port_a, map_a, trace.ops[ia], clock_a, stats.instructions);
        ++ia;
      } while (ia < n && (ib >= n || clock_a <= clock_b));
    } else {
      do {
        replay_op(port_b, map_b, trace.ops[ib], clock_b, stats.instructions);
        ++ib;
      } while (ib < n && (ia >= n || clock_b < clock_a));
    }
  }

  stats.cycles = std::max(clock_a, clock_b);
  stats.accesses = 2 * trace.ops.size();
  stats.llc_misses = system.hierarchy(kInstanceA).l3().stats().misses +
                     system.hierarchy(kInstanceB).l3().stats().misses;
  const auto dram = system.controller().total_stats();
  stats.row_hit_rate = dram.hit_rate();
  if (obs::Registry* reg = obs::current_registry()) {
    reg->counter("graph.instructions").add(stats.instructions);
    reg->counter("graph.accesses").add(stats.accesses);
    reg->counter("graph.llc_misses").add(stats.llc_misses);
    reg->counter("graph.cycles").add(stats.cycles);
    reg->gauge("graph.row_hit_rate").set(stats.row_hit_rate);
    reg->gauge("graph.mpki").set(stats.mpki());
  }
  return stats;
}

RunStats run_multiprogrammed(const MultiprogConfig& config,
                             WorkloadKind kind, dram::RowPolicy policy) {
  return run_multiprogrammed(config, build_input(config, kind), policy);
}

}  // namespace impact::graph
