#include "workloads.hpp"

#include <algorithm>
#include <barrier>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <optional>
#include <thread>

#include "attacks/registry.hpp"
#include "attacks/side_channel.hpp"
#include "exec/thread_pool.hpp"
#include "graph/multiprog.hpp"
#include "lab/experiments.hpp"
#include "obs/scope.hpp"
#include "store/cell_runner.hpp"
#include "sys/system.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using impact::obs::Snapshot;

std::string format(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

std::string what(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Runs `body` into `op.error` on failure, never throwing.
template <class Body>
void guarded(Op& op, Body&& body) {
  try {
    body();
  } catch (...) {
    op.error = what(std::current_exception());
  }
}

// --- defense_grid --------------------------------------------------------

constexpr impact::dram::RowPolicy kPolicies[] = {
    impact::dram::RowPolicy::kOpenRow, impact::dram::RowPolicy::kClosedRow,
    impact::dram::RowPolicy::kConstantTime, impact::dram::RowPolicy::kAdaptive};

std::string cell_id(impact::graph::WorkloadKind kind,
                    impact::dram::RowPolicy policy) {
  return std::string(to_string(kind)) + "/" + to_string(policy);
}

std::string stats_line(const impact::graph::RunStats& s) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &s.row_hit_rate, sizeof bits);
  return format("cycles=%" PRIu64 " instructions=%" PRIu64
                " accesses=%" PRIu64 " llc_misses=%" PRIu64
                " row_hit_rate=0x%016" PRIx64,
                static_cast<std::uint64_t>(s.cycles), s.instructions,
                s.accesses, s.llc_misses, bits);
}

/// The counters of a cell that depend only on the cache/TLB hit-miss
/// sequence and the DRAM request stream it emits (not on how DRAM serves
/// the requests).
Snapshot filter_signature(const Snapshot& cell) {
  Snapshot sig;
  for (const auto& [name, value] : cell.counters) {
    if (name.starts_with("cache.") || name.starts_with("tlb.") ||
        name == "dram.commands") {
      sig.counters[name] = value;
    }
  }
  return sig;
}

class DefenseGrid final : public Workload {
 public:
  DefenseGrid() : pool_(kThreads) {}

  [[nodiscard]] std::uint64_t paper_seed() const override {
    return impact::graph::MultiprogConfig{}.graph_seed;
  }
  [[nodiscard]] std::vector<double> paper_headline() const override {
    return {15.0, 26.0};  // Average CRP / CTD overhead, %.
  }

  Rep run(std::uint64_t seed, Tracer* tracer) override {
    using namespace impact;
    const graph::MultiprogConfig config = config_for(seed);
    Rep rep;
    std::optional<obs::Scope> scope;
    if (tracer != nullptr) scope.emplace();
    const std::size_t first_span = tracer != nullptr ? tracer->size() : 0;
    const double cpu0 = process_cpu_s();

    store::WorkloadStore workloads;
    {
      Stopwatch sw(rep.setup_s);
      for (const graph::WorkloadKind kind : graph::kAllWorkloads) {
        const Tracer::Span s = span(tracer, "store:WorkloadStore::get");
        (void)workloads.get(config, kind);
      }
    }
    store::ResultCache cache{store::ResultCache::Options{}};
    store::CellRunner runner(cache, workloads, &pool_);
    store::CellRunner::MatrixResult grid;
    {
      Stopwatch sw(rep.run_s);
      const Tracer::Span s = span(tracer, "store:CellRunner::defense_matrix");
      grid = runner.defense_matrix(config, graph::kAllWorkloads, kPolicies);
    }
    rep.cpu_s = process_cpu_s() - cpu0;

    double crp = 0.0;
    double ctd = 0.0;
    const std::size_t kinds = std::size(graph::kAllWorkloads);
    for (std::size_t w = 0; w < kinds; ++w) {
      const double open = static_cast<double>(grid.cells[w][0].stats.cycles);
      crp += 100.0 * (static_cast<double>(grid.cells[w][1].stats.cycles) / open - 1.0);
      ctd += 100.0 * (static_cast<double>(grid.cells[w][2].stats.cycles) / open - 1.0);
      for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
        const graph::WorkloadKind kind = graph::kAllWorkloads[w];
        Op op;
        op.id = cell_id(kind, kPolicies[p]);
        op.result = stats_line(grid.cells[w][p].stats);
        for (const exec::CellError& e : grid.report.errors) {
          if (e.label == std::string("run:") + to_string(kind) + ":" +
                             to_string(kPolicies[p])) {
            op.error = "sweep cell failed: " + e.label;
          }
        }
        rep.events += grid.cells[w][p].stats.accesses;
        rep.ops.push_back(std::move(op));
      }
    }
    rep.headline = {crp / static_cast<double>(kinds),
                    ctd / static_cast<double>(kinds)};
    Op render;
    render.id = "fig11/render";
    if (grid.ok()) {
      render.result = format("fnv1a64=%016" PRIx64,
                             fnv1a64(lab::render_fig11(grid)));
    } else {
      render.error = "grid failed: " + grid.report.summary();
    }
    rep.ops.push_back(std::move(render));

    if (tracer != nullptr) {
      std::uint64_t hierarchy = 0;
      std::uint64_t repeated = 0;
      for (std::size_t w = 0; w < kinds; ++w) {
        std::vector<Snapshot> seen;
        for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
          const Snapshot& cell = grid.cells[w][p].snapshot;
          rep.counters.merge(cell);
          const std::uint64_t accesses = cell.counter("cache.l1.hits") +
                                         cell.counter("cache.l1.misses");
          hierarchy += accesses;
          const Snapshot sig = filter_signature(cell);
          if (std::find_if(seen.begin(), seen.end(), [&](const Snapshot& s) {
                return s.counters == sig.counters;
              }) != seen.end()) {
            repeated += accesses;
          }
          seen.push_back(sig);
        }
      }
      const std::size_t end = tracer->size();
      rep.layer["graph.build_s"] =
          tracer->total("store:WorkloadStore::get", first_span, end);
      rep.layer["store.grid_s"] =
          tracer->total("store:CellRunner::defense_matrix", first_span, end);
      rep.layer["store.cache_misses"] =
          static_cast<double>(grid.report.cache_misses);
      rep.layer["store.cache_stored"] =
          static_cast<double>(grid.report.cache_stored);
      rep.layer["store.workload_builds"] =
          static_cast<double>(workloads.size());
      rep.layer["cache.repeat_share"] =
          hierarchy == 0 ? 0.0
                         : static_cast<double>(repeated) /
                               static_cast<double>(hierarchy);
    }
    return rep;
  }

  /// Serial decomposition: every cell once more through
  /// graph::run_multiprogrammed on this thread, each in its own span and
  /// obs::Scope. Gives the replay time per access and the pool's parallel
  /// efficiency, and checks the serial results against the pooled grid.
  void trace_extras(std::uint64_t seed, const Rep& traced, Tracer& tracer,
                    std::map<std::string, double>& layer,
                    std::vector<Op>& ops) override {
    using namespace impact;
    const graph::MultiprogConfig config = config_for(seed);
    store::WorkloadStore workloads;
    double replay_s = 0.0;
    std::uint64_t accesses = 0;
    for (const graph::WorkloadKind kind : graph::kAllWorkloads) {
      const graph::WorkloadInput* input = workloads.get(config, kind);
      for (const dram::RowPolicy policy : kPolicies) {
        Op op;
        op.id = "serial:" + cell_id(kind, policy);
        guarded(op, [&] {
          graph::RunStats stats;
          {
            obs::Scope scope;
            Stopwatch sw(replay_s);
            const Tracer::Span s = span(&tracer, "graph:run_multiprogrammed");
            stats = graph::run_multiprogrammed(config, *input, policy);
          }
          accesses += stats.accesses;
          op.result = stats_line(stats);
          const auto pooled =
              std::find_if(traced.ops.begin(), traced.ops.end(),
                           [&](const Op& o) { return o.id == cell_id(kind, policy); });
          if (pooled == traced.ops.end() || pooled->result != op.result) {
            op.error = "serial result differs from the pooled grid cell";
          }
        });
        ops.push_back(std::move(op));
      }
    }
    layer["graph.replay_s"] = replay_s;
    layer["graph.replay_ns_per_access"] =
        accesses == 0 ? 0.0 : 1e9 * replay_s / static_cast<double>(accesses);
    const double grid_s = layer["store.grid_s"];
    layer["exec.parallel_efficiency"] =
        grid_s <= 0.0 ? 0.0 : replay_s / (kThreads * grid_s);
  }

 private:
  static impact::graph::MultiprogConfig config_for(std::uint64_t seed) {
    impact::graph::MultiprogConfig config;
    config.graph_seed = seed;
    return config;
  }

  impact::exec::ThreadPool pool_;
};

// --- waves of single-threaded ops ---------------------------------------

/// The covert and side-channel ops are single-threaded. They run in waves
/// of kThreads equal-sized ops (one per seed) on kThreads threads of the
/// harness's own, so each timing averages over the host's cores instead of
/// taking the speed of whichever core one thread landed on. The library's
/// exec layer is not involved.
struct Wave {
  double setup_s = 0.0;  ///< Until the last lane finished its set-up.
  double run_s = 0.0;    ///< From there until the last lane finished running.
};

/// Runs lane(i, sync) for i in [0, kThreads) on threads of its own. Each
/// lane calls sync() exactly twice: after its set-up and after its run, and
/// must not throw.
template <class Lane>
Wave run_wave(Lane&& lane) {
  Clock::time_point marks[3] = {Clock::now(), {}, {}};
  int phase = 0;
  std::barrier sync(kThreads, [&]() noexcept { marks[++phase] = Clock::now(); });
  {
    std::vector<std::jthread> lanes;
    for (unsigned i = 0; i < kThreads; ++i) {
      lanes.emplace_back([&, i] { lane(i, [&] { sync.arrive_and_wait(); }); });
    }
  }
  return {seconds_between(marks[0], marks[1]), seconds_between(marks[1], marks[2])};
}

// --- covert_channels -----------------------------------------------------

constexpr std::uint64_t kLlcMb[] = {2, 64};
constexpr std::size_t kBitsPerMessage = 64;  // As in Fig. 8.
/// Fig. 8 sends 12 messages; more make each measurement long enough to time.
constexpr std::size_t kMessages = 384;

std::string slug(std::string_view name) {
  std::string out;
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0
               ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
               : '_';
  }
  return out;
}

impact::sys::SystemConfig covert_system(impact::attacks::AttackKind kind,
                                        std::uint64_t llc_mb) {
  impact::sys::SystemConfig cfg;
  cfg.llc_bytes = llc_mb << 20;
  cfg.mapping = impact::attacks::recommended_mapping(kind);
  return cfg;
}

class CovertChannels final : public Workload {
 public:
  [[nodiscard]] std::uint64_t paper_seed() const override { return 21; }
  [[nodiscard]] std::vector<double> paper_headline() const override {
    return {12.87, 14.16};  // IMPACT-PnM / IMPACT-PuM peak Mb/s.
  }

  /// One wave per (attack, LLC size); lane i sends the payload of message
  /// seed `seed + i`.
  Rep run(std::uint64_t seed, Tracer* tracer) override {
    using namespace impact;
    Rep rep;
    const double cpu0 = process_cpu_s();
    double pnm = 0.0;
    double pum = 0.0;
    for (const attacks::AttackKind kind : attacks::kFig8Attacks) {
      double peak[std::size(kLlcMb)] = {};
      for (std::size_t l = 0; l < std::size(kLlcMb); ++l) {
        const sys::SystemConfig cfg = covert_system(kind, kLlcMb[l]);
        std::vector<Op> ops(kThreads);
        std::vector<channel::ChannelReport> reports(kThreads);
        std::vector<double> run_s(kThreads, 0.0);
        std::vector<Snapshot> counters(kThreads);
        const Wave wave = run_wave([&](unsigned i, auto sync) {
          Op& op = ops[i];
          op.id = format("%s/%" PRIu64 "MB/seed=%" PRIu64, to_string(kind),
                         kLlcMb[l], seed + i);
          std::optional<obs::Scope> scope;
          if (tracer != nullptr) scope.emplace();
          std::unique_ptr<sys::MemorySystem> system;
          std::unique_ptr<channel::CovertAttack> attack;
          guarded(op, [&] {
            {
              const Tracer::Span s = span(tracer, "sys:MemorySystem::MemorySystem");
              system = std::make_unique<sys::MemorySystem>(cfg);
            }
            const Tracer::Span s = span(tracer, "attacks:make_attack");
            attack = attacks::make_attack(kind, *system);
          });
          sync();
          if (attack) {
            guarded(op, [&] {
              Stopwatch sw(run_s[i]);
              const Tracer::Span s = span(tracer, "channel:CovertAttack::measure");
              reports[i] = attack->measure(kBitsPerMessage, kMessages, seed + i);
            });
          }
          sync();
          attack.reset();
          system.reset();  // Flushes the hierarchy's providers into the scope.
          if (scope) counters[i] = scope->snapshot();
        });
        rep.setup_s += wave.setup_s;
        rep.run_s += wave.run_s;
        for (unsigned i = 0; i < kThreads; ++i) {
          const channel::ChannelReport& r = reports[i];
          Op& op = ops[i];
          if (op.error.empty()) {
            op.result = format(
                "bits=%zu correct=%zu elapsed=%" PRIu64 " sender=%" PRIu64
                " receiver=%" PRIu64,
                r.bits_total, r.bits_correct,
                static_cast<std::uint64_t>(r.elapsed_cycles),
                static_cast<std::uint64_t>(r.sender_cycles),
                static_cast<std::uint64_t>(r.receiver_cycles));
            if (r.bits_total != kBitsPerMessage * kMessages ||
                r.bits_correct > r.bits_total) {
              op.error = "payload accounting is inconsistent";
            }
          }
          rep.events += r.bits_total;
          peak[l] += r.throughput_mbps(cfg.frequency()) / kThreads;
          rep.counters.merge(counters[i]);
          if (tracer != nullptr) {
            rep.layer["attacks." + slug(to_string(kind)) + ".ns_per_bit"] +=
                1e9 * run_s[i] /
                static_cast<double>(kBitsPerMessage * kMessages * kThreads *
                                    std::size(kLlcMb));
          }
          rep.ops.push_back(std::move(op));
        }
      }
      const double best = *std::max_element(std::begin(peak), std::end(peak));
      if (kind == attacks::AttackKind::kImpactPnm) pnm = best;
      if (kind == attacks::AttackKind::kImpactPum) pum = best;
    }
    rep.cpu_s = process_cpu_s() - cpu0;
    rep.headline = {pnm, pum};
    if (tracer != nullptr) rep.layer["attacks.setup_s"] = rep.setup_s;
    return rep;
  }

  /// Time of each attack's first transmission on a fresh instance, which
  /// includes any lazy threshold calibration. Serial and outside any obs
  /// scope, so the rep's channel counters hold the measured payload only.
  void trace_extras(std::uint64_t seed, const Rep&, Tracer& tracer,
                    std::map<std::string, double>& layer,
                    std::vector<Op>&) override {
    using namespace impact;
    double first_s = 0.0;
    for (const attacks::AttackKind kind : attacks::kFig8Attacks) {
      for (const std::uint64_t mb : kLlcMb) {
        sys::MemorySystem system(covert_system(kind, mb));
        const auto attack = attacks::make_attack(kind, system);
        util::Xoshiro256 rng(seed);
        const util::BitVec msg = util::BitVec::random(kBitsPerMessage, rng);
        Stopwatch sw(first_s);
        const Tracer::Span s = span(&tracer, "channel:CovertAttack::transmit");
        (void)attack->transmit(msg);
      }
    }
    layer["channel.first_transmit_s"] = first_s;
  }
};

// --- side_channel --------------------------------------------------------

constexpr std::uint32_t kBanks[] = {1024, 2048, 4096, 8192};  // Fig. 10.
/// Victim seeds per bank count, in waves of kThreads. The run is lengthened
/// with seeds, not with SideChannelConfig::reads (more reads grow
/// victim-side genomics work, not the PEI traffic the channel is about).
constexpr std::uint64_t kVictimSeeds = 2 * kThreads;

class SideChannel final : public Workload {
 public:
  [[nodiscard]] std::uint64_t paper_seed() const override {
    return impact::attacks::SideChannelConfig{}.seed;
  }
  [[nodiscard]] std::vector<double> paper_headline() const override {
    return {7.57, 2.56};  // Event capture Mb/s at 1024 and 8192 banks.
  }

  Rep run(std::uint64_t seed, Tracer* tracer) override {
    using namespace impact;
    Rep rep;
    const std::size_t first_span = tracer != nullptr ? tracer->size() : 0;
    const double cpu0 = process_cpu_s();
    double capture_low = 0.0;   // Summed over victim seeds, 1024 banks.
    double capture_high = 0.0;  // 8192 banks.
    std::uint64_t observations = 0, correct = 0, seed_events = 0, captured = 0;
    for (const std::uint32_t banks : kBanks) {
      for (std::uint64_t first = 0; first < kVictimSeeds; first += kThreads) {
        std::vector<Op> ops(kThreads);
        std::vector<attacks::SideChannelResult> results(kThreads);
        std::vector<Snapshot> counters(kThreads);
        const Wave wave = run_wave([&](unsigned i, auto sync) {
          attacks::SideChannelConfig config;
          config.banks = banks;
          config.seed = seed + first + i;
          Op& op = ops[i];
          op.id = format("banks=%u/seed=%" PRIu64, banks, config.seed);
          std::optional<obs::Scope> scope;
          if (tracer != nullptr) scope.emplace();
          std::optional<attacks::ReadMappingSpy> spy;
          guarded(op, [&] {
            const Tracer::Span s =
                span(tracer, "attacks:ReadMappingSpy::ReadMappingSpy");
            spy.emplace(config);
          });
          sync();
          if (spy) {
            guarded(op, [&] {
              const Tracer::Span s = span(tracer, "attacks:ReadMappingSpy::run");
              results[i] = spy->run();
            });
          }
          sync();
          spy.reset();
          if (scope) counters[i] = scope->snapshot();
        });
        rep.setup_s += wave.setup_s;
        rep.run_s += wave.run_s;
        for (unsigned i = 0; i < kThreads; ++i) {
          const attacks::SideChannelResult& r = results[i];
          Op& op = ops[i];
          if (op.error.empty()) {
            op.result = format(
                "observations=%zu correct=%zu elapsed=%" PRIu64
                " victim_seed_events=%zu captured=%zu",
                r.probes.observations, r.probes.correct,
                static_cast<std::uint64_t>(r.probes.elapsed_cycles),
                r.victim_seed_events, r.captured_events);
            if (r.probes.correct > r.probes.observations ||
                r.captured_events > r.victim_seed_events) {
              op.error = "probe accounting is inconsistent";
            }
          }
          const double mbps = r.capture_throughput_mbps(2.6);
          if (banks == kBanks[0]) capture_low += mbps;
          if (banks == std::end(kBanks)[-1]) capture_high += mbps;
          observations += r.probes.observations;
          correct += r.probes.correct;
          seed_events += r.victim_seed_events;
          captured += r.captured_events;
          rep.counters.merge(counters[i]);
          rep.ops.push_back(std::move(op));
        }
      }
    }
    rep.cpu_s = process_cpu_s() - cpu0;
    rep.headline = {capture_low / kVictimSeeds, capture_high / kVictimSeeds};
    if (tracer != nullptr) {
      const std::size_t end = tracer->size();
      rep.events = rep.counters.counter("pim.pei.ops");
      rep.layer["genomics.spy_build_s"] = tracer->total(
          "attacks:ReadMappingSpy::ReadMappingSpy", first_span, end);
      rep.layer["attacks.spy_run_s"] =
          tracer->total("attacks:ReadMappingSpy::run", first_span, end);
      rep.layer["attacks.probe_error_rate"] =
          observations == 0 ? 0.0
                            : 1.0 - static_cast<double>(correct) /
                                        static_cast<double>(observations);
      rep.layer["attacks.capture_rate"] =
          seed_events == 0 ? 0.0
                           : static_cast<double>(captured) /
                                 static_cast<double>(seed_events);
    }
    return rep;
  }

  void trace_extras(std::uint64_t, const Rep&, Tracer&,
                    std::map<std::string, double>&,
                    std::vector<Op>&) override {}
};

}  // namespace

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "defense_grid") return std::make_unique<DefenseGrid>();
  if (name == "covert_channels") return std::make_unique<CovertChannels>();
  if (name == "side_channel") return std::make_unique<SideChannel>();
  return nullptr;
}

}  // namespace perfbench
