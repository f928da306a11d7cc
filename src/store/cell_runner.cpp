#include "store/cell_runner.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

namespace impact::store {

namespace {

/// Per-cell scratch the cache hooks write from sweep workers. Each cell
/// owns one distinct slot, so no locking is needed beyond the sweep's own
/// scheduling edges.
struct CellState {
  Fingerprint fp;
  std::string label;
  std::string verify_stash;  ///< Cached bytes awaiting re-simulation.
  unsigned char cached = 0;
};

[[noreturn]] void verify_divergence(const CellState& cell,
                                    const std::string& fresh_bytes) {
  std::fprintf(stderr,
               "IMPACT_STORE_VERIFY: cache divergence on cell '%s'\n"
               "  fingerprint: %s\n"
               "  cached record: %zu bytes, re-simulated record: %zu bytes\n"
               "The store returned a result that re-simulation does not\n"
               "reproduce — either the fingerprint misses a dependency or\n"
               "the simulation is nondeterministic. Aborting.\n",
               cell.label.c_str(), cell.fp.hex().c_str(),
               cell.verify_stash.size(), fresh_bytes.size());
  std::abort();
}

}  // namespace

Fingerprint matrix_cell_fingerprint(const graph::MultiprogConfig& config,
                                    graph::WorkloadKind kind,
                                    dram::RowPolicy policy) {
  Canon c;
  c.field("cell", "graph.multiprog.defense");
  c.object("config", canon_of(config));
  c.field("workload", to_string(kind));
  c.field("policy", to_string(policy));
  return c.fingerprint();
}

CellRunner::MatrixResult CellRunner::defense_matrix(
    const graph::MultiprogConfig& config,
    std::span<const graph::WorkloadKind> kinds,
    std::span<const dram::RowPolicy> policies) {
  const bool verify = cache_.options().verify;
  MatrixResult out;
  out.cells.assign(kinds.size(),
                   std::vector<MatrixCell>(policies.size()));

  std::vector<std::vector<CellState>> states(kinds.size());
  std::vector<std::vector<exec::Sweep::TaskId>> ids(
      kinds.size(), std::vector<exec::Sweep::TaskId>(policies.size()));
  // Per-workload filter output: one DramStream per instance, written by
  // that instance's filter task and read by the workload's policy cells
  // (the sweep's dependency edges order the two). The last policy cell to
  // finish releases both streams, so a grid holds the streams of only the
  // workloads it is still replaying.
  struct Streams {
    std::optional<graph::DramStream> instance[2];
    std::atomic<std::size_t> pending{0};  ///< Policy cells not yet done.

    void cell_done() {
      if (--pending == 0) {
        instance[0].reset();
        instance[1].reset();
      }
    }
  };
  std::vector<Streams> streams(kinds.size());

  exec::Sweep sweep(pool_);
  sweep.set_capture(true);
  for (std::size_t w = 0; w < kinds.size(); ++w) {
    const graph::WorkloadKind kind = kinds[w];
    const std::string kind_name = to_string(kind);
    states[w].resize(policies.size());
    streams[w].pending = policies.size();
    for (std::size_t p = 0; p < policies.size(); ++p) {
      states[w][p].fp = matrix_cell_fingerprint(config, kind, policies[p]);
      states[w][p].label = "run:" + kind_name + ":" + to_string(policies[p]);
    }

    // The input build and the filters are themselves cache-aware: when
    // every policy cell of this workload already has a record (and we are
    // not auditing), neither the graph nor the streams need to exist. In
    // verify mode the cells will re-simulate, so both run regardless.
    const auto skip_when_all_cached = [this, w, &states, verify] {
      exec::CacheHooks hooks;
      hooks.probe = [this, w, &states, verify] {
        if (verify) return false;
        for (const CellState& cell : states[w]) {
          if (!cache_.contains(cell.fp)) return false;
        }
        return true;
      };
      return hooks;
    };
    const exec::Sweep::TaskId build = sweep.add_cached(
        "input:" + kind_name,
        [this, &config, kind] { (void)workloads_.get(config, kind); },
        skip_when_all_cached());
    exec::Sweep::TaskId filters[2];
    for (const graph::Instance instance :
         {graph::Instance::kA, graph::Instance::kB}) {
      const auto i = static_cast<std::size_t>(instance);
      filters[i] = sweep.add_cached(
          "filter:" + kind_name + (i == 0 ? ":A" : ":B"),
          [this, &config, kind, instance, &slot = streams[w].instance[i]] {
            slot = graph::filter_instance(
                config, *workloads_.get(config, kind), instance);
          },
          skip_when_all_cached(), {build});
    }

    for (std::size_t p = 0; p < policies.size(); ++p) {
      CellState& cell = states[w][p];
      MatrixCell& slot = out.cells[w][p];
      Streams& ws = streams[w];
      exec::CacheHooks hooks;
      hooks.probe = [this, verify, &cell, &slot, &ws] {
        std::string raw;
        std::optional<Record> rec = cache_.lookup(cell.fp, &raw);
        if (!rec) return false;
        if (verify) {
          cell.verify_stash = std::move(raw);
          return false;  // Force a re-simulation; publish compares.
        }
        const std::optional<graph::RunStats> stats =
            decode_run_stats(rec->payload);
        if (!stats) return false;  // Stale codec: degrade to a miss.
        slot.stats = *stats;
        slot.snapshot = std::move(rec->snapshot);
        slot.cached = true;
        cell.cached = 1;
        ws.cell_done();
        return true;
      };
      hooks.publish = [this, &cell, &slot](const obs::Snapshot& snap) {
        const Record rec{cell.fp, cell.label, encode(slot.stats), snap};
        if (!cell.verify_stash.empty()) {
          const std::string fresh = serialize(rec);
          if (fresh != cell.verify_stash) verify_divergence(cell, fresh);
          return;  // Audited identical; the cached copy already exists.
        }
        cache_.store(rec);
      };
      const dram::RowPolicy policy = policies[p];
      ids[w][p] = sweep.add_cached(
          cell.label,
          [this, &config, kind, policy, &slot, &ws] {
            const graph::WorkloadInput& input = *workloads_.get(config, kind);
            if (ws.instance[0] && ws.instance[1]) {
              slot.stats = graph::replay_dram(config, input, *ws.instance[0],
                                              *ws.instance[1], policy);
            } else {
              // The filters were probe-skipped (every cell had a record)
              // but this cell's record then failed to decode: run it
              // whole. get() builds the input on demand, exactly once.
              slot.stats = graph::run_multiprogrammed(config, input, policy);
            }
            ws.cell_done();
          },
          std::move(hooks), {filters[0], filters[1]});
    }
  }

  out.report = sweep.run();
  // Splice fresh telemetry into the per-cell results: cached cells carry
  // their record's snapshot already, fresh cells take the sweep capture.
  for (std::size_t w = 0; w < kinds.size(); ++w) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      if (!out.cells[w][p].cached) {
        out.cells[w][p].snapshot = out.report.snapshots[ids[w][p]];
      }
    }
  }
  return out;
}

CellRunner::RowsResult CellRunner::rows(
    std::string_view sweep_label, std::size_t n,
    const std::function<Fingerprint(std::size_t)>& fingerprint_of,
    const std::function<std::vector<std::string>(std::size_t)>& run) {
  const bool verify = cache_.options().verify;
  RowsResult out;
  out.rows.resize(n);

  std::vector<CellState> states(n);
  exec::Sweep sweep(pool_);
  sweep.set_capture(true);
  for (std::size_t i = 0; i < n; ++i) {
    CellState& cell = states[i];
    cell.fp = fingerprint_of(i);
    cell.label =
        std::string(sweep_label) + "[" + std::to_string(i) + "]";
    std::vector<std::string>& slot = out.rows[i];

    exec::CacheHooks hooks;
    hooks.probe = [this, verify, &cell, &slot] {
      std::string raw;
      std::optional<Record> rec = cache_.lookup(cell.fp, &raw);
      if (!rec) return false;
      if (verify) {
        cell.verify_stash = std::move(raw);
        return false;
      }
      std::optional<std::vector<std::string>> row = decode_row(rec->payload);
      if (!row) return false;
      slot = std::move(*row);
      cell.cached = 1;
      return true;
    };
    hooks.publish = [this, &cell, &slot](const obs::Snapshot& snap) {
      const Record rec{cell.fp, cell.label, encode_row(slot), snap};
      if (!cell.verify_stash.empty()) {
        const std::string fresh = serialize(rec);
        if (fresh != cell.verify_stash) verify_divergence(cell, fresh);
        return;
      }
      cache_.store(rec);
    };
    sweep.add_cached(cell.label, [&run, &slot, i] { slot = run(i); },
                     std::move(hooks));
  }

  out.report = sweep.run();
  return out;
}

}  // namespace impact::store
