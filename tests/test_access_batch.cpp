// Scalar-vs-batch bit-identity pins for the PEI batch kernel
// (docs/performance.md, "Batched access streams").
//
// pim::PeiDispatcher::execute_batch promises that a chained run of PEIs
// (`clock += pre_cost; <execute>; clock += post_cost` per op) leaves the
// machine exactly where the same loop over execute() leaves it: every
// per-op PeiResult, the final clock, each bank's BankStats, the PMU, the
// obs counters and the trace. IMPACT-PnM's send_run/probe_run are thin
// loops over this kernel (attacks/impact_pnm.cpp). Each test drives twin
// MemorySystems, one per form, over the same random targets, under the
// aborting protocol checker (IMPACT_CHECK=1, set by CTest) plus a
// collecting checker attached here, and compares everything.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <tuple>
#include <vector>

#include "check/protocol_checker.hpp"
#include "dram/bank.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "pim/pei.hpp"
#include "sys/system.hpp"
#include "util/rng.hpp"

namespace impact::pim {
namespace {

constexpr std::uint64_t kSeed = 0xba7c4;
constexpr dram::ActorId kActor = 1;

/// Per-op clock costs around each PEI.
struct Costs {
  util::Cycle pre = 0;
  util::Cycle post = 0;
};

void PrintTo(const Costs& c, std::ostream* os) {
  *os << "pre=" << c.pre << " post=" << c.post;
}

/// How one twin runs its PEIs.
struct Plan {
  std::size_t ops = 4096;
  Costs costs;
  bool traced = false;
  /// Largest execute_batch call; chunk lengths are drawn from
  /// [0, max_chunk], so runs of every length, empty ones included, occur.
  std::size_t max_chunk = 64;
};

/// Everything a run leaves behind that the two forms must agree on.
struct Outcome {
  std::vector<sys::VAddr> targets;
  std::vector<PeiResult> results;
  util::Cycle clock = 0;
  std::vector<dram::BankStats> bank_stats;
  LocalityMonitorStats pmu;
  obs::Snapshot snapshot;
  std::vector<obs::TraceEvent> trace;
  std::size_t trace_dropped = 0;
  std::uint64_t commands_checked = 0;
  std::size_t violations = 0;
};

/// Draws `n` PEI targets: half from 8 cache blocks of `hot`, which recur
/// often enough for the PMU to judge them hot (host-side placement), half
/// uniform over `wide`, mostly fresh blocks (memory-side placement) on
/// pages that miss the TLB, so page walks reach DRAM too.
std::vector<sys::VAddr> draw_targets(const sys::VSpan& hot,
                                     const sys::VSpan& wide, std::size_t n) {
  util::Xoshiro256 rng(kSeed);
  std::vector<sys::VAddr> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.below(2) == 0) {
      out.push_back(hot.vaddr + 64 * rng.below(8));
    } else {
      out.push_back(wide.vaddr + rng.below(wide.bytes));
    }
  }
  return out;
}

/// Runs `plan` on a fresh system, as one execute_batch call per random
/// chunk (`batched`) or as the equivalent loop over execute().
Outcome run(const Plan& plan, bool batched) {
  Outcome out;
  obs::TraceSession trace;
  obs::Scope scope(plan.traced ? &trace : nullptr);
  sys::MemorySystem system{sys::SystemConfig{}};
  dram::MemoryController& mc = system.controller();
  check::ProtocolChecker collector(mc.timing(), check::FailMode::kCollect);
  mc.add_observer(&collector);
  PeiDispatcher pei(PeiConfig{}, system, kActor);
  const sys::VSpan hot = system.vmem().map_pages(kActor, 1);
  const sys::VSpan wide = system.vmem().map_row_span(kActor, /*row=*/7);
  out.targets = draw_targets(hot, wide, plan.ops);
  out.results.resize(plan.ops);

  util::Cycle clock = 1000;
  if (batched) {
    util::Xoshiro256 chunks(kSeed + 1);
    for (std::size_t i = 0; i < plan.ops;) {
      const std::size_t len = std::min<std::size_t>(
          plan.ops - i, chunks.below(plan.max_chunk + 1));
      pei.execute_batch(out.targets.data() + i, len, clock, plan.costs.pre,
                        plan.costs.post, out.results.data() + i);
      i += len;
    }
  } else {
    for (std::size_t i = 0; i < plan.ops; ++i) {
      clock += plan.costs.pre;
      out.results[i] = pei.execute(out.targets[i], clock);
      clock += plan.costs.post;
    }
  }
  out.clock = clock;

  for (dram::BankId b = 0; b < mc.banks(); ++b) {
    out.bank_stats.push_back(mc.bank_stats(b));
    collector.reconcile_stats(b, mc.bank_stats(b));
  }
  system.reconcile_protocol();
  out.pmu = pei.pmu().stats();
  out.snapshot = scope.snapshot();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    out.trace.push_back(trace.event(i));
  }
  out.trace_dropped = trace.dropped();
  out.commands_checked = collector.commands_checked();
  out.violations = collector.violations().size();
  mc.remove_observer(&collector);
  return out;
}

std::size_t host_placements(const Outcome& o) {
  return static_cast<std::size_t>(
      std::count_if(o.results.begin(), o.results.end(), [](const PeiResult& r) {
        return r.placement == PeiPlacement::kHost;
      }));
}

void expect_identical(const Outcome& scalar, const Outcome& batch) {
  // Twin systems map alike, so both forms issue the same targets.
  ASSERT_EQ(scalar.targets, batch.targets);
  ASSERT_EQ(scalar.results.size(), batch.results.size());
  for (std::size_t i = 0; i < scalar.results.size(); ++i) {
    const PeiResult& s = scalar.results[i];
    const PeiResult& b = batch.results[i];
    ASSERT_EQ(s.latency, b.latency) << "op " << i;
    ASSERT_EQ(s.placement, b.placement) << "op " << i;
    ASSERT_EQ(s.outcome, b.outcome) << "op " << i;
    ASSERT_EQ(s.bank, b.bank) << "op " << i;
  }
  EXPECT_EQ(scalar.clock, batch.clock);

  ASSERT_EQ(scalar.bank_stats.size(), batch.bank_stats.size());
  for (std::size_t b = 0; b < scalar.bank_stats.size(); ++b) {
    const dram::BankStats& s = scalar.bank_stats[b];
    const dram::BankStats& t = batch.bank_stats[b];
    EXPECT_EQ(s.hits, t.hits) << "bank " << b;
    EXPECT_EQ(s.empties, t.empties) << "bank " << b;
    EXPECT_EQ(s.conflicts, t.conflicts) << "bank " << b;
    EXPECT_EQ(s.activations, t.activations) << "bank " << b;
    EXPECT_EQ(s.rowclones, t.rowclones) << "bank " << b;
  }

  EXPECT_EQ(scalar.pmu.lookups, batch.pmu.lookups);
  EXPECT_EQ(scalar.pmu.allocations, batch.pmu.allocations);
  EXPECT_EQ(scalar.pmu.ignored_first_hits, batch.pmu.ignored_first_hits);
  EXPECT_EQ(scalar.pmu.host_decisions, batch.pmu.host_decisions);
  EXPECT_EQ(scalar.pmu.memory_decisions, batch.pmu.memory_decisions);

  EXPECT_EQ(scalar.snapshot.counters, batch.snapshot.counters);

  EXPECT_EQ(scalar.trace_dropped, batch.trace_dropped);
  ASSERT_EQ(scalar.trace.size(), batch.trace.size());
  for (std::size_t i = 0; i < scalar.trace.size(); ++i) {
    const obs::TraceEvent& s = scalar.trace[i];
    const obs::TraceEvent& b = batch.trace[i];
    ASSERT_EQ(s.cat, b.cat) << "event " << i;
    ASSERT_EQ(s.name, b.name) << "event " << i;
    ASSERT_EQ(s.start, b.start) << "event " << i;
    ASSERT_EQ(s.end, b.end) << "event " << i;
    ASSERT_EQ(s.track, b.track) << "event " << i;
    ASSERT_EQ(s.phase, b.phase) << "event " << i;
  }

  EXPECT_EQ(scalar.commands_checked, batch.commands_checked);
  EXPECT_EQ(scalar.violations, 0u);
  EXPECT_EQ(batch.violations, 0u);
}

/// (traced, per-op costs): none, the probe_run timer bracket
/// (cpuid + rdtscp before, rdtscp after, at TimerConfig defaults), and an
/// asymmetric pair.
class PeiBatch
    : public ::testing::TestWithParam<std::tuple<bool, Costs>> {};

TEST_P(PeiBatch, MatchesScalarLoop) {
  Plan plan;
  plan.traced = std::get<0>(GetParam());
  plan.costs = std::get<1>(GetParam());
  const Outcome scalar = run(plan, /*batched=*/false);
  const Outcome batch = run(plan, /*batched=*/true);

  // The stream must reach both placements, or half the kernel is untested.
  const std::size_t host = host_placements(scalar);
  EXPECT_GT(host, 0u);
  EXPECT_LT(host, scalar.results.size());
  EXPECT_EQ(scalar.snapshot.counters.at("pim.pei.ops"), plan.ops);
  EXPECT_EQ(scalar.snapshot.counters.at("pim.pei.host_side"), host);
  EXPECT_GT(scalar.commands_checked, 0u);
  if (plan.traced) {
    EXPECT_FALSE(scalar.trace.empty());
  } else {
    EXPECT_TRUE(scalar.trace.empty());
  }
  expect_identical(scalar, batch);
}

INSTANTIATE_TEST_SUITE_P(
    TracedAndCosts, PeiBatch,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(Costs{0, 0}, Costs{28 + 24, 24},
                                         Costs{3, 0})));

TEST(PeiBatchRun, WholeStreamInFewCallsMatchesScalarLoop) {
  // Chunks up to the full stream: the kernel's counter update then
  // covers thousands of ops in one go.
  Plan plan;
  plan.ops = 2048;
  plan.max_chunk = plan.ops;
  plan.traced = true;
  plan.costs = Costs{5, 11};
  expect_identical(run(plan, /*batched=*/false), run(plan, /*batched=*/true));
}

}  // namespace
}  // namespace impact::pim
