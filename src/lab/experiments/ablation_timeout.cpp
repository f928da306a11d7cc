// Ablation: the open-row idle timeout vs the covert channel.
//
// Table 2 lists a 100 ns "row timeout". Under the common scheduler
// semantics (the timeout closes a row early only to serve waiting
// requests; an idle bank keeps its row open) the attacks work exactly as
// the paper reports — that is our default. This ablation enables the
// strict *idle-precharge* interpretation at several timeout values and
// shows that the row-buffer covert channel collapses once the timeout is
// shorter than the sender->probe gap: an aggressive idle precharge is
// itself a (costly) defense the paper does not evaluate.
#include <cstdio>

#include "attacks/impact_pnm.hpp"
#include "graph/multiprog.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "sys/system.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

int run_ablation_timeout(Context&) {
  std::printf("=== bench_ablation_timeout: idle-precharge row timeout vs "
              "IMPACT-PnM ===\n\n");

  util::Table table({"timeout mode", "timeout (ns)", "throughput (Mb/s)",
                     "error rate"});

  auto run = [&](dram::RowTimeoutMode mode, double ns) {
    sys::SystemConfig config;
    config.dram.timing.timeout_mode = mode;
    config.dram.timing.row_timeout_ns = ns;
    sys::MemorySystem system(config);
    attacks::ImpactPnm attack(system);
    const auto report = attack.measure(64, 10, 33);
    const char* mode_name = mode == dram::RowTimeoutMode::kContention
                                ? "contention (default)"
                                : "idle-precharge";
    table.add_row({mode_name, util::Table::num(ns, 0),
                   util::Table::num(report.throughput_mbps(
                       config.frequency())),
                   util::Table::num(100.0 * report.error_rate(), 1) + "%"});
  };

  run(dram::RowTimeoutMode::kContention, 100);
  for (const double ns : {2000.0, 1000.0, 500.0, 200.0, 100.0, 50.0}) {
    run(dram::RowTimeoutMode::kIdlePrecharge, ns);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("With strict idle precharge at the Table 2 value (100 ns) the\n"
              "sender's interference evaporates before the receiver can\n"
              "probe and the error rate approaches chance — evidence that\n"
              "the paper's working attacks imply the contention-triggered\n"
              "timeout semantics modeled by our default.\n\n");

  // The price of that accidental defense: idle-precharge timeouts cost
  // performance like a milder CRP. Same Fig. 11 methodology, smaller
  // input for speed.
  std::printf("--- performance cost of idle-precharge timeouts (BFS + PR, "
              "Fig. 11 setup) ---\n");
  util::Table cost({"timeout (ns)", "BFS overhead", "PR overhead"});
  graph::MultiprogConfig base;
  base.rmat_scale = 13;
  base.edge_count = 1u << 16;
  // The timeout changes only DRAM, so each input is built and filtered
  // through the caches once, then replayed under the open-row baseline and
  // every timeout (graph::filter_instance / graph::replay_dram). BFS and
  // PR share one graph.
  struct Filtered {
    graph::WorkloadInput input;
    graph::DramStream a;
    graph::DramStream b;
  };
  const auto shared_graph = graph::build_graph(base);
  const auto filter = [&base, &shared_graph](graph::WorkloadKind kind) {
    Filtered f{graph::build_input(shared_graph, kind), {}, {}};
    f.a = graph::filter_instance(base, f.input, graph::Instance::kA);
    f.b = graph::filter_instance(base, f.input, graph::Instance::kB);
    return f;
  };
  const auto replay = [](const graph::MultiprogConfig& config,
                         const Filtered& f) {
    return graph::replay_dram(config, f.input, f.a, f.b,
                              dram::RowPolicy::kOpenRow);
  };
  const Filtered bfs_input = filter(graph::WorkloadKind::kBFS);
  const Filtered pr_input = filter(graph::WorkloadKind::kPR);
  const auto bfs_open = replay(base, bfs_input);
  const auto pr_open = replay(base, pr_input);
  for (const double ns : {1000.0, 200.0, 100.0}) {
    graph::MultiprogConfig config = base;
    config.system.dram.timing.timeout_mode =
        dram::RowTimeoutMode::kIdlePrecharge;
    config.system.dram.timing.row_timeout_ns = ns;
    const auto bfs = replay(config, bfs_input);
    const auto pr = replay(config, pr_input);
    cost.add_row(
        {util::Table::num(ns, 0),
         util::Table::num(100.0 * (static_cast<double>(bfs.cycles) /
                                       bfs_open.cycles -
                                   1.0),
                          1) +
             "%",
         util::Table::num(100.0 * (static_cast<double>(pr.cycles) /
                                       pr_open.cycles -
                                   1.0),
                          1) +
             "%"});
  }
  std::printf("%s\n", cost.render().c_str());
  return 0;
}

}  // namespace

void register_ablation_timeout(Registry& r) {
  ExperimentSpec spec;
  spec.name = "ablation_timeout";
  spec.description =
      "Idle-precharge row-timeout ablation: covert-channel collapse and "
      "its performance price";
  spec.kind = Kind::kAblation;
  spec.run = run_ablation_timeout;
  r.add(std::move(spec));
}

}  // namespace impact::lab
