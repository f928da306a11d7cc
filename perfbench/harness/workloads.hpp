// The benchmark's three workloads — the paper's three applications — each
// driving the impact library through its public functions.
//
//   defense_grid     Fig. 11: 5 graph workloads x 4 row policies on
//                    store::CellRunner over a 4-thread exec::ThreadPool.
//   covert_channels  Fig. 8's six attacks at LLC 2 MB and 64 MB, one
//                    single-threaded CovertAttack::measure per message seed.
//   side_channel     Fig. 10's ReadMappingSpy over 1024-8192 banks and
//                    several victim seeds, each spy single-threaded.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/snapshot.hpp"
#include "trace.hpp"

namespace perfbench {

/// One simulated operation (a grid cell, an attack x LLC measurement, a
/// spy run) and its canonical result line. Result lines of the paper-seed
/// ops are compared exactly with the pinned references; at any seed every
/// repetition must reproduce the first one's lines.
struct Op {
  std::string id;
  std::string result;
  std::string error;  ///< Non-empty when the op threw or failed in the engine.
};

/// One repetition of a workload: set-up, then run.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::vector<Op> ops;
  /// Simulated events of the run phase (graph accesses, payload bits,
  /// PEI ops). Side-channel PEI ops are only countable in a traced rep.
  std::uint64_t events = 0;
  /// Simulated headline numbers, in the order of paper_headline().
  std::vector<double> headline;
  /// Traced reps only: the merged obs counters of the rep's scopes (the
  /// grid's per-cell snapshots, one scope per covert or spy op) and
  /// workload-specific layer values.
  impact::obs::Snapshot counters;
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The seed that reproduces the paper figure (and the pinned references).
  [[nodiscard]] virtual std::uint64_t paper_seed() const = 0;
  /// The paper's values for Rep::headline, same order.
  [[nodiscard]] virtual std::vector<double> paper_headline() const = 0;

  /// One repetition at `seed`. With a tracer, every public call gets a span
  /// and runs inside an obs::Scope whose counters are returned in
  /// Rep::counters; without one, no extra scope is opened.
  [[nodiscard]] virtual Rep run(std::uint64_t seed, Tracer* tracer) = 0;

  /// Extra traced-only passes after the repetitions (the grid's serial
  /// decomposition, the covert first-transmit timing). Adds layer values
  /// to `layer` and any checked ops to `ops`.
  virtual void trace_extras(std::uint64_t seed, const Rep& traced,
                            Tracer& tracer, std::map<std::string, double>& layer,
                            std::vector<Op>& ops) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name);

/// 64-bit FNV-1a, for digests of rendered text and of result lines.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s);

/// Threads of every workload: the grid's exec::ThreadPool workers (as
/// `impact run fig11` uses on a 4-core host), and the harness's own lanes
/// for the single-threaded covert and side-channel ops.
inline constexpr unsigned kThreads = 4;

}  // namespace perfbench
