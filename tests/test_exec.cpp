// Tests of the parallel experiment engine (src/exec/): thread-pool
// behaviour (exception propagation, single-worker pools, IMPACT_THREADS
// parsing), seed derivation, sweep dependency ordering and failure
// isolation, and — most importantly — the determinism
// contract: parallel sweeps must be byte-identical to serial ones for any
// pool size. Run under IMPACT_SANITIZE=thread by tools/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "graph/multiprog.hpp"
#include "obs/scope.hpp"
#include "store/cell_runner.hpp"

namespace impact {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  exec::ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  exec::ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SingleWorkerPoolStillCompletes) {
  exec::ThreadPool pool(1);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, NegativeEnvThreadCountCountsAsUnset) {
  // strtoul wraps "-1" to ULONG_MAX, which the [1, 256] clamp used to turn
  // into 256 workers. A negative count must warn and fall back instead.
  std::optional<std::string> saved;
  if (const char* old = std::getenv("IMPACT_THREADS")) saved = old;
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned fallback = hw > 0 ? hw : 1;
  for (const char* value : {"-1", "-4", " -256"}) {
    ::setenv("IMPACT_THREADS", value, 1);
    ::testing::internal::CaptureStderr();
    const unsigned threads = exec::ThreadPool::default_threads();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(threads, fallback) << "IMPACT_THREADS='" << value << "'";
    EXPECT_NE(err.find("IMPACT_THREADS"), std::string::npos) << value;
  }
  ::setenv("IMPACT_THREADS", "3", 1);
  EXPECT_EQ(exec::ThreadPool::default_threads(), 3u);
  if (saved) {
    ::setenv("IMPACT_THREADS", saved->c_str(), 1);
  } else {
    ::unsetenv("IMPACT_THREADS");
  }
}

TEST(DeriveSeed, DeterministicAndDistinct) {
  EXPECT_EQ(exec::derive_seed(42, 0), exec::derive_seed(42, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(exec::derive_seed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // No collisions across task indices.
  // Different base seeds give different streams.
  EXPECT_NE(exec::derive_seed(42, 7), exec::derive_seed(43, 7));
}

TEST(Sweep, SerialRunsInInsertionOrder) {
  exec::Sweep sweep(nullptr);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sweep.add("t" + std::to_string(i), [&order, i] { order.push_back(i); });
  }
  ASSERT_TRUE(sweep.run().ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Sweep, DependenciesRunBeforeDependents) {
  exec::ThreadPool pool(4);
  exec::Sweep sweep(&pool);
  std::atomic<bool> built{false};
  std::atomic<int> violations{0};
  const auto build = sweep.add("build", [&built] { built = true; });
  for (int i = 0; i < 8; ++i) {
    sweep.add("use" + std::to_string(i),
              [&built, &violations] {
                if (!built) ++violations;
              },
              {build});
  }
  ASSERT_TRUE(sweep.run().ok());
  EXPECT_EQ(violations.load(), 0);
}

TEST(Sweep, ParallelRunsEveryTaskExactlyOnce) {
  // Trivial roots retire while run() is still submitting the others; a
  // dependent they unblock must not be dispatched a second time.
  for (unsigned threads : {2u, 4u, 8u}) {
    exec::ThreadPool pool(threads);
    for (int rep = 0; rep < 50; ++rep) {
      exec::Sweep sweep(&pool);
      constexpr std::size_t kRoots = 4;
      constexpr std::size_t kChildren = 8;
      std::vector<std::atomic<int>> runs(kRoots * (kChildren + 1));
      for (std::size_t r = 0; r < kRoots; ++r) {
        const auto root = sweep.add("root", [&runs, id = sweep.size()] {
          ++runs[id];
        });
        for (std::size_t c = 0; c < kChildren; ++c) {
          sweep.add("child", [&runs, id = sweep.size()] { ++runs[id]; },
                    {root});
        }
      }
      const exec::RunReport report = sweep.run();
      ASSERT_TRUE(report.ok()) << threads << " thread(s)";
      ASSERT_EQ(report.completed, runs.size());
      for (std::size_t i = 0; i < runs.size(); ++i) {
        ASSERT_EQ(runs[i].load(), 1) << "task " << i << ", " << threads
                                     << " thread(s)";
      }
    }
  }
}

TEST(Sweep, RejectsForwardDependencies) {
  exec::Sweep sweep(nullptr);
  const auto t0 = sweep.add("a", [] {});
  EXPECT_THROW(sweep.add("b", [] {}, {t0 + 1}), std::invalid_argument);
}

TEST(Sweep, ErrorSkipsDependentsAndIsReported) {
  exec::ThreadPool pool(2);
  exec::Sweep sweep(&pool);
  std::atomic<bool> dependent_ran{false};
  const auto bad =
      sweep.add("bad", [] { throw std::runtime_error("build failed"); });
  const auto child =
      sweep.add("child", [&dependent_ran] { dependent_ran = true; }, {bad});
  const exec::RunReport report = sweep.run();
  EXPECT_FALSE(dependent_ran.load());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.skipped, 1u);
  ASSERT_EQ(report.errors.size(), 2u);
  EXPECT_EQ(report.errors[0].task, bad);
  EXPECT_EQ(report.errors[0].kind, exec::CellError::kFailed);
  EXPECT_EQ(report.errors[0].message, "build failed");
  EXPECT_EQ(report.errors[1].task, child);
  EXPECT_EQ(report.errors[1].kind, exec::CellError::kSkipped);
}

TEST(SweepCache, ProbeHitSkipsFunctionAndCounts) {
  exec::Sweep sweep;
  bool ran = false;
  bool published = false;
  sweep.add_cached(
      "hit", [&] { ran = true; },
      {[] { return true; }, [&](const obs::Snapshot&) { published = true; }});
  sweep.add_cached(
      "miss", [] {}, {[] { return false; }, {}});
  const auto report = sweep.run();
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(ran) << "a probe hit must skip the cell function";
  EXPECT_FALSE(published) << "publish only runs after the function";
  EXPECT_EQ(report.completed, 2u) << "a hit still counts as completed";
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_EQ(report.cache_misses, 1u);
}

TEST(SweepCache, HookExceptionsNeverBreakTheSweep) {
  exec::Sweep sweep;
  int ran = 0;
  // A throwing probe degrades to a miss; a throwing publish is swallowed.
  sweep.add_cached(
      "bad-probe", [&] { ++ran; },
      {[]() -> bool { throw std::runtime_error("probe"); },
       [](const obs::Snapshot&) {}});
  sweep.add_cached(
      "bad-publish", [&] { ++ran; },
      {[] { return false; },
       [](const obs::Snapshot&) { throw std::runtime_error("publish"); }});
  const auto report = sweep.run();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.cache_misses, 2u);
  EXPECT_EQ(report.cache_stored, 1u) << "only the surviving publish counts";
}

TEST(SweepCache, HitLeavesSnapshotSlotEmptyButValid) {
  for (unsigned threads : {0u, 2u}) {
    exec::ThreadPool pool(threads == 0 ? 1 : threads);
    exec::Sweep sweep(threads == 0 ? nullptr : &pool);
    sweep.set_capture(true);
    const auto hit = sweep.add_cached(
        "hit", [] { FAIL() << "must not run"; }, {[] { return true; }, {}});
    const auto miss = sweep.add_cached(
        "miss",
        [] {
          // Touch the obs spine so the miss cell's snapshot is non-empty.
          if (auto c = obs::counter("exec_test.cache_cells")) c.add(1);
        },
        {[] { return false; }, {}});
    const auto report = sweep.run();
    ASSERT_TRUE(report.ok()) << threads << " thread(s)";
    // Preallocated per-cell slots: a hit's slot exists (mergeable) but
    // holds nothing — the cell never executed, so any content would be
    // double-counted telemetry.
    ASSERT_EQ(report.snapshots.size(), 2u);
    EXPECT_TRUE(report.snapshots[hit].empty());
    EXPECT_EQ(report.snapshots[miss].counter("exec_test.cache_cells"), 1u);
    // Merging across hit and miss slots must work without special-casing.
    obs::Snapshot total = report.snapshots[hit];
    total.merge(report.snapshots[miss]);
    EXPECT_EQ(total.counters, report.snapshots[miss].counters);
  }
}

TEST(SweepCache, MissRunsAndPublishes) {
  exec::Sweep sweep;
  bool ran = false;
  bool published = false;
  sweep.add_cached(
      "hit", [&] { ran = true; }, {[] { return true; }, {}});
  sweep.add_cached(
      "miss", [] {},
      {[] { return false; }, [&](const obs::Snapshot&) { published = true; }});
  ASSERT_TRUE(sweep.run().ok());
  EXPECT_FALSE(ran);
  EXPECT_TRUE(published);
}

TEST(SweepCache, HitSatisfiesDependents) {
  exec::Sweep sweep;
  bool dependent_ran = false;
  const auto producer = sweep.add_cached(
      "producer", [] { FAIL() << "cached producer must not run"; },
      {[] { return true; }, {}});
  sweep.add("consumer", [&] { dependent_ran = true; }, {producer});
  const auto report = sweep.run();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(dependent_ran)
      << "a cache hit completes the task; dependents must proceed";
}

/// Reduced-scale Fig. 11 config: small enough that the whole grid runs in
/// about a second per evaluation, big enough to exercise real runs.
graph::MultiprogConfig tiny_config() {
  graph::MultiprogConfig config;
  config.rmat_scale = 10;
  config.edge_count = 8192;
  config.system.cache_scale = 2048;
  return config;
}

/// One cold Fig. 11 grid through the CellRunner: fresh input store and a
/// disabled cache, so every input builds and every cell simulates.
store::CellRunner::MatrixResult cold_grid(exec::ThreadPool* pool) {
  constexpr dram::RowPolicy kPolicies[] = {dram::RowPolicy::kOpenRow,
                                           dram::RowPolicy::kClosedRow,
                                           dram::RowPolicy::kConstantTime};
  store::ResultCache::Options disabled;
  disabled.enabled = false;
  store::ResultCache cache(disabled);
  store::WorkloadStore workloads;
  store::CellRunner runner(cache, workloads, pool);
  return runner.defense_matrix(tiny_config(), graph::kAllWorkloads,
                               kPolicies);
}

TEST(Determinism, DefenseMatrixMatchesAcrossPoolSizes) {
  const auto serial = cold_grid(nullptr);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial.cells.size(), std::size(graph::kAllWorkloads));
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool(threads);
    const auto parallel = cold_grid(&pool);
    ASSERT_TRUE(parallel.ok()) << threads << " thread(s)";
    EXPECT_EQ(parallel.report.cache_hits, 0u) << threads << " thread(s)";
    for (std::size_t w = 0; w < serial.cells.size(); ++w) {
      for (std::size_t p = 0; p < serial.cells[w].size(); ++p) {
        EXPECT_EQ(parallel.cells[w][p].stats, serial.cells[w][p].stats)
            << threads << " thread(s), cell " << w << "," << p;
        EXPECT_EQ(parallel.cells[w][p].snapshot.counters,
                  serial.cells[w][p].snapshot.counters)
            << threads << " thread(s), cell " << w << "," << p;
      }
    }
  }
}

}  // namespace
}  // namespace impact
