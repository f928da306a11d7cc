// Multiprogrammed graph execution over the simulated memory system.
//
// Fig. 11's setup: a 2-core system where both cores run an instance of the
// same workload on the *same shared input graph* (the CSR arrays' physical
// pages are mapped into both processes, so both hit the same DRAM banks),
// each with private algorithm state. We replay both instances' traces
// interleaved by simulated time and measure total cycles per row policy.
//
// A run has two passes. filter_instance sends one instance's trace through
// its TLB and private caches and records the ops that reach DRAM; that
// does not depend on the row policy, so the Fig. 11 grid filters each
// workload once. replay_dram then feeds both instances' streams to a
// fresh memory controller, once per policy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dram/config.hpp"
#include "graph/graph.hpp"
#include "graph/workload.hpp"
#include "obs/snapshot.hpp"
#include "sys/system.hpp"

namespace impact::graph {

struct MultiprogConfig {
  sys::SystemConfig system = scaled_system();
  std::uint32_t rmat_scale = 15;      ///< 32k vertices.
  std::size_t edge_count = 262144;    ///< Directed edges.
  std::uint64_t graph_seed = 99;

  /// Fig. 11 default: hierarchy scaled down 256x together with the input
  /// graph (paper inputs are 7-8 GB; see SystemConfig::cache_scale), which
  /// keeps the working-set-to-cache ratios, and with them the paper's
  /// MPKI regime, while staying replayable in seconds.
  [[nodiscard]] static sys::SystemConfig scaled_system() {
    sys::SystemConfig s;
    s.cache_scale = 256;
    return s;
  }
};

struct RunStats {
  util::Cycle cycles = 0;          ///< Makespan of the two instances.
  std::uint64_t instructions = 0;  ///< Both instances combined.
  std::uint64_t accesses = 0;
  std::uint64_t llc_misses = 0;
  double row_hit_rate = 0.0;       ///< Of the DRAM accesses performed.

  [[nodiscard]] double mpki() const {
    return instructions == 0 ? 0.0
                             : 1000.0 * static_cast<double>(llc_misses) /
                                   static_cast<double>(instructions);
  }

  /// Exact (bitwise for row_hit_rate) equality: the determinism tests pin
  /// parallel sweeps to the serial results with no tolerance.
  friend bool operator==(const RunStats&, const RunStats&) = default;
};

/// The shared input of one Fig. 11 bar group: the RMAT graph and the
/// workload trace both co-scheduled instances replay. The sweep engine
/// builds it once per workload and shares it (read-only) across the
/// per-policy cells; the graph itself is shared by every workload of one
/// graph config (build_graph).
struct WorkloadInput {
  std::shared_ptr<const CsrGraph> graph;
  WorkloadTrace trace;
};

/// Deterministically builds the RMAT input graph of `config`. It depends
/// only on graph_seed, rmat_scale and edge_count.
[[nodiscard]] std::shared_ptr<const CsrGraph> build_graph(
    const MultiprogConfig& config);

/// The input for `kind` over `graph`: the graph plus build_trace's trace.
[[nodiscard]] WorkloadInput build_input(std::shared_ptr<const CsrGraph> graph,
                                        WorkloadKind kind);

/// Deterministically builds the shared input for `kind` (config seed):
/// build_input(build_graph(config), kind).
[[nodiscard]] WorkloadInput build_input(const MultiprogConfig& config,
                                        WorkloadKind kind);

/// One of the two co-scheduled instances.
enum class Instance : std::uint8_t { kA, kB };

/// One instance's pass through its TLB and private cache hierarchy: which
/// trace ops reached DRAM and with which requests, plus what the pass
/// counted. None of it depends on the row policy or the DRAM timing
/// (sys/system.hpp modelling note), so one stream serves every policy.
///
/// Encoding: one record per DRAM-touching op, in trace order. Varints
/// (LEB128): the op's trace index minus the previous record's; the cycles
/// of the cache-hit ops in between; the op's TLB + lookup latency. Then a
/// byte, (request count << 2) | hit level. Then, for every request except
/// a demand miss (which is the op's own address, rebuilt from the trace
/// and `frames`), a zigzag varint of its line minus the op's line. Records
/// fill fixed-capacity chunks and never straddle two, so building a
/// stream never reallocates (and copies) what it already holds.
struct DramStream {
  /// The filtered system: the config's system with 2 cores, and with the
  /// fields a replay may change (dram.policy, dram.timing) at defaults.
  sys::SystemConfig system;
  dram::ActorId actor = 0;
  /// The filtered trace, identified by its kind, length and checksum.
  WorkloadKind kind = WorkloadKind::kBFS;
  std::uint64_t trace_checksum = 0;
  std::uint64_t accesses = 0;  ///< Trace ops filtered.
  /// Physical frame of every page of this instance's arrays: page k of
  /// array a is frames[first_page[a] + k].
  std::vector<std::uint64_t> frames;
  std::uint64_t first_page[kArrayRefCount] = {};
  std::uint32_t page_bits = 0;
  std::uint32_t line_bytes = 0;
  std::vector<std::vector<std::uint8_t>> chunks;
  std::uint64_t dram_ops = 0;  ///< Records in `chunks`.
  util::Cycle tail = 0;        ///< Cycles of the hit ops after the last one.
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  /// This instance's cache.* and tlb.* counters, published by every
  /// replay so each cell's obs::Snapshot is that of a full run.
  obs::Snapshot counters;
};

/// Filters `instance`'s replay of `input` through its TLB and caches. Both
/// instances are mapped exactly as a full run maps them, so the physical
/// addresses match.
[[nodiscard]] DramStream filter_instance(const MultiprogConfig& config,
                                         const WorkloadInput& input,
                                         Instance instance);

/// Replays the two filtered instances of `input` under `policy` on a
/// fresh controller, interleaved by simulated time as in a full run, and
/// publishes the cell's graph.*, cache.*, tlb.* and dram.* counters into
/// the current obs scope. Bit-identical to running the full hierarchy.
/// Throws std::invalid_argument when `config.system` differs from the
/// filtered system in anything but dram.policy and dram.timing, when
/// `a`/`b` are not instance A/B of one filtered system, or when `input`
/// is not the input they were filtered from.
[[nodiscard]] RunStats replay_dram(const MultiprogConfig& config,
                                   const WorkloadInput& input,
                                   const DramStream& a, const DramStream& b,
                                   dram::RowPolicy policy);

/// The same replay into a caller-owned, freshly constructed controller
/// (whose policy and timing it runs under), so the caller can inspect its
/// banks afterwards. Throws std::invalid_argument when the controller's
/// geometry or mapping differs from the filtered system.
[[nodiscard]] RunStats replay_dram(const WorkloadInput& input,
                                   const DramStream& a, const DramStream& b,
                                   dram::MemoryController& controller);

/// Runs two co-scheduled instances replaying `input` under `policy`:
/// filter_instance for both instances, then replay_dram.
[[nodiscard]] RunStats run_multiprogrammed(const MultiprogConfig& config,
                                           const WorkloadInput& input,
                                           dram::RowPolicy policy);

/// Convenience: builds the input, then runs. Bit-identical to the
/// two-step form (the input build is deterministic in the config seed).
[[nodiscard]] RunStats run_multiprogrammed(const MultiprogConfig& config,
                                           WorkloadKind kind,
                                           dram::RowPolicy policy);

}  // namespace impact::graph
