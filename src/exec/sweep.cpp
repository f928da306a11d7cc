#include "exec/sweep.hpp"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>

#include "obs/registry.hpp"
#include "obs/scope.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace impact::exec {

namespace {

/// Probes a task's cache hook; any exception degrades to a miss (the cache
/// is an accelerator, never a correctness dependency).
bool probe_task(const CacheHooks& hooks) {
  if (!hooks.probe) return false;
  try {
    return hooks.probe();
  } catch (...) {
    return false;
  }
}

/// Publishes a completed cell; returns whether the publish took. Failures
/// are swallowed for the same reason probe failures are.
bool publish_task(const CacheHooks& hooks, const obs::Snapshot& snapshot) {
  if (!hooks.publish) return false;
  try {
    hooks.publish(snapshot);
    return true;
  } catch (...) {
    return false;
  }
}

/// Mirrors a run's cache accounting into the caller's obs registry so
/// drivers see hit rates in their snapshots without extra plumbing.
void emit_cache_obs(std::size_t hits, std::size_t misses,
                    std::size_t stored) {
  if (hits + misses + stored == 0) return;
  if (obs::Registry* reg = obs::current_registry()) {
    reg->counter("exec.sweep.cache_hits").add(hits);
    reg->counter("exec.sweep.cache_misses").add(misses);
    reg->counter("exec.sweep.cache_stored").add(stored);
  }
}

}  // namespace

std::string RunReport::summary() const {
  std::string s = std::to_string(completed) + "/" + std::to_string(tasks) +
                  " tasks completed";
  s += ", " + std::to_string(failed) + " failed";
  s += ", " + std::to_string(skipped) + " skipped";
  if (cache_hits + cache_misses > 0) {
    s += ", " + std::to_string(cache_hits) + " cache hits / " +
         std::to_string(cache_misses) + " misses";
  }
  return s;
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // Golden-ratio spacing keeps distinct indices distinct before the
  // splitmix64 avalanche inside Xoshiro256's reseed scrambles them.
  util::Xoshiro256 rng(base_seed ^
                       (0x9E3779B97F4A7C15ull * (task_index + 1)));
  return rng();
}

Sweep::TaskId Sweep::add(std::string label, std::function<void()> fn,
                         std::initializer_list<TaskId> deps) {
  return add_cached(std::move(label), std::move(fn), CacheHooks{}, deps);
}

Sweep::TaskId Sweep::add_cached(std::string label, std::function<void()> fn,
                                CacheHooks hooks,
                                std::initializer_list<TaskId> deps) {
  const TaskId id = tasks_.size();
  for (const TaskId d : deps) {
    util::check(d < id, "Sweep::add: dependency on a not-yet-added task");
  }
  tasks_.push_back(Task{std::move(label), std::move(fn),
                        std::vector<TaskId>(deps), std::move(hooks)});
  return id;
}

namespace {

/// Runs `fn` once; returns the failure message, or nullopt on success.
std::optional<std::string> run_cell(const std::function<void()>& fn) {
  try {
    fn();
    return std::nullopt;
  } catch (const std::exception& e) {
    return std::string(e.what());
  } catch (...) {
    return std::string("non-standard exception");
  }
}

/// Full outcome of one cell: its failure message, if any, plus the cache
/// facts the retire step folds into the report under its lock.
struct CellOutcome {
  std::optional<std::string> error;  ///< Set when the cell threw.
  bool probed = false;  ///< Task had a probe hook.
  bool hit = false;     ///< Probe satisfied the cell; fn never ran.
  bool stored = false;  ///< Publish hook accepted the completed cell.
};

}  // namespace

RunReport Sweep::run() {
  RunReport report;
  report.tasks = tasks_.size();
  const std::size_t n = tasks_.size();
  if (n == 0) return report;
  // Preallocated before any task starts: concurrent cells then write only
  // their own (distinct) slot, so capture needs no extra locking.
  if (capture_) report.snapshots.resize(n);

  // Scheduler state, all guarded by one mutex (tasks are coarse).
  struct State {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::vector<std::size_t> unmet;  ///< Unfinished dependency count.
    std::vector<std::vector<TaskId>> dependents;
    std::vector<bool> failed;  ///< Failed or skipped.
    std::size_t remaining = 0;  ///< Tasks not yet retired.
  } state;
  state.unmet.assign(n, 0);
  state.dependents.assign(n, {});
  state.failed.assign(n, false);
  for (TaskId id = 0; id < n; ++id) {
    state.unmet[id] = tasks_[id].deps.size();
    for (const TaskId d : tasks_[id].deps) {
      state.dependents[d].push_back(id);
    }
  }
  state.remaining = n;

  // Cells that never executed (cache hit or dependency skip), so the
  // post-run assertion can check their snapshot slots stayed empty.
  // unsigned char, not vector<bool>: concurrent cells write distinct slots.
  std::vector<unsigned char> never_ran(n, 0);
  // Per-cell error records, written under the lock into a preallocated
  // slot and collected in task order once every cell retired.
  std::vector<std::optional<CellError>> cell_errors(n);

  // Retires `id` and collects the dependents it unblocks into `ready`. A
  // dependent of a failed cell retires at once as skipped, which can
  // cascade. Lock held.
  const auto retire_locked = [&](TaskId id, std::vector<TaskId>& ready) {
    std::vector<TaskId> retiring{id};
    while (!retiring.empty()) {
      const TaskId t = retiring.back();
      retiring.pop_back();
      --state.remaining;
      for (const TaskId dep : state.dependents[t]) {
        if (--state.unmet[dep] != 0) continue;
        bool dep_failed = false;
        for (const TaskId d : tasks_[dep].deps) {
          dep_failed = dep_failed || state.failed[d];
        }
        if (!dep_failed) {
          ready.push_back(dep);
          continue;
        }
        state.failed[dep] = true;
        never_ran[dep] = 1;
        ++report.skipped;
        cell_errors[dep] = CellError{dep, tasks_[dep].label,
                                     "skipped: dependency failed",
                                     CellError::kSkipped};
        retiring.push_back(dep);
      }
    }
  };

  // Runs one cell through probe -> run -> publish, under a fresh obs scope
  // when capture is on. A probe hit never opens a scope — the cell does no
  // work, so its snapshot slot must stay empty. Publish runs after the
  // scope closes and only for successful cells.
  const auto attempt_cell = [&](TaskId id) {
    const Task& task = tasks_[id];
    CellOutcome out;
    out.probed = static_cast<bool>(task.hooks.probe);
    if (out.probed && probe_task(task.hooks)) {
      out.hit = true;
      never_ran[id] = 1;
      return out;
    }
    if (!capture_) {
      out.error = run_cell(task.fn);
    } else {
      obs::Scope scope;
      out.error = run_cell(task.fn);
      report.snapshots[id] = scope.snapshot();
    }
    if (!out.error) {
      out.stored = publish_task(
          task.hooks, capture_ ? report.snapshots[id] : obs::Snapshot{});
    }
    return out;
  };

  const bool serial = pool_ == nullptr || pool_->size() <= 1;

  std::function<void(TaskId)> execute_cell = [&](TaskId id) {
    CellOutcome out = attempt_cell(id);
    std::vector<TaskId> ready;
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      if (out.hit) {
        ++report.cache_hits;
      } else if (out.probed) {
        ++report.cache_misses;
      }
      if (out.stored) ++report.cache_stored;
      if (!out.error) {
        ++report.completed;
      } else {
        state.failed[id] = true;
        ++report.failed;
        cell_errors[id] = CellError{id, tasks_[id].label,
                                    std::move(*out.error), CellError::kFailed};
      }
      retire_locked(id, ready);
      // The serial walk below dispatches in id order by itself.
      if (serial) ready.clear();
      if (state.remaining == 0) state.done_cv.notify_all();
    }
    // Only locals from here on: once the last cell retired, run() may
    // already have returned.
    for (const TaskId r : ready) {
      (void)pool_->submit([&execute_cell, r] { execute_cell(r); });
    }
  };

  if (serial) {
    // Insertion order is topological, so when the walk reaches a cell all
    // its dependencies have retired; a cell already marked failed here was
    // skipped by an upstream failure.
    for (TaskId id = 0; id < n; ++id) {
      if (!state.failed[id]) execute_cell(id);
    }
    IMPACT_ASSERT(state.remaining == 0);
  } else {
    // Roots come from the immutable dependency lists, not from
    // state.unmet: a root submitted first may already be retiring and
    // unblocking its dependents (which it then submits itself).
    for (TaskId id = 0; id < n; ++id) {
      if (tasks_[id].deps.empty()) {
        (void)pool_->submit([&execute_cell, id] { execute_cell(id); });
      }
    }
    std::unique_lock<std::mutex> lock(state.mutex);
    // Always satisfiable: every cell retires exactly once, either by
    // executing or by being skipped when an upstream cell retires failed.
    // SIMLINT-ALLOW(unbounded-wait)
    state.done_cv.wait(lock, [&] { return state.remaining == 0; });
  }

  for (std::optional<CellError>& e : cell_errors) {
    if (e) report.errors.push_back(std::move(*e));
  }
  // Every cell that never executed (cache hit, dependency skip) must leave
  // its preallocated snapshot slot empty-but-valid: merging the grid's
  // snapshots would otherwise double-count cached work, and the CellRunner
  // relies on "empty slot == no fresh telemetry" to splice cached
  // snapshots back in. Enforced, not assumed. (Cells that ran and failed
  // are excluded on purpose: their snapshots hold the traffic of the
  // failed run, which is real.)
  if (capture_) {
    for (TaskId id = 0; id < n; ++id) {
      if (never_ran[id] != 0) IMPACT_ASSERT(report.snapshots[id].empty());
    }
  }
  emit_cache_obs(report.cache_hits, report.cache_misses,
                 report.cache_stored);
  return report;
}

}  // namespace impact::exec
