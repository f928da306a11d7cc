// perfbench_harness: one benchmark run of one workload, printed as one JSON
// record on the last line of stdout.
//
//   perfbench_harness --workload <defense_grid|covert_channels|side_channel>
//                     [--seed N] [--seconds S] [--trace 0|1]
//                     --reference-dir DIR [--spans FILE]
//                     [--write-reference DIR]
//
// A run makes, in order:
//   1. a reference pass at the paper seed, every op compared exactly with
//      DIR/<workload>.ref (and, for the grid, the Fig. 11 table with
//      DIR/fig11.txt); its headline numbers give paper_gap_pct;
//   2. a warm-up repetition at --seed inside obs scopes, untimed: it
//      counts the simulated events and fixes the results every timed
//      repetition must reproduce exactly;
//   3. timed repetitions at --seed until --seconds have passed. With
//      --trace 1 untraced and traced repetitions alternate (the difference
//      of their medians is the tracing overhead), then the workload's
//      traced-only passes run.
// Every op of every pass counts in `attempted`; a thrown exception or a
// result that differs from its reference counts in `failed`.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/protocol_checker.hpp"
#include "json.hpp"
#include "obs/snapshot.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"},          {"setup_s", "s"},     {"cpu_s", "s"},
    {"events_per_s", "1/s"},  {"peak_rss_mb", "MB"}, {"paper_gap_pct", "%"},
};

/// Every per-layer metric, emitted by every workload; a layer the workload
/// never enters reads 0.
constexpr Metric kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.accesses", "count"},
    {"graph.instructions", "count"},
    {"graph.llc_misses", "count"},
    {"graph.replay_s", "s"},
    {"graph.replay_ns_per_access", "ns"},
    {"cache.l1.hits", "count"},
    {"cache.l1.misses", "count"},
    {"cache.l2.misses", "count"},
    {"cache.l3.misses", "count"},
    {"cache.l3.writebacks", "count"},
    {"cache.prefetch_fills", "count"},
    {"cache.l1.hit_ratio", "ratio"},
    {"cache.l3.miss_ratio", "ratio"},
    {"cache.repeat_share", "ratio"},
    {"tlb.accesses", "count"},
    {"tlb.walks", "count"},
    {"tlb.walk_ratio", "ratio"},
    {"dram.commands", "count"},
    {"dram.hits", "count"},
    {"dram.conflicts", "count"},
    {"dram.activations", "count"},
    {"dram.rowclones", "count"},
    {"dram.row_hit_ratio", "ratio"},
    {"dram.ns_per_command", "ns"},
    {"pim.pei.ops", "count"},
    {"pim.pei.memory_side", "count"},
    {"pim.rowclone.ops", "count"},
    {"pim.rowclone.legs", "count"},
    {"channel.first_transmit_s", "s"},
    {"channel.bits.total", "count"},
    {"channel.bits.correct", "count"},
    {"channel.goodput_ratio", "ratio"},
    {"attacks.setup_s", "s"},
    {"attacks.drama_clflush.ns_per_bit", "ns"},
    {"attacks.drama_eviction.ns_per_bit", "ns"},
    {"attacks.dma_engine.ns_per_bit", "ns"},
    {"attacks.pnm_offchip.ns_per_bit", "ns"},
    {"attacks.impact_pnm.ns_per_bit", "ns"},
    {"attacks.impact_pum.ns_per_bit", "ns"},
    {"genomics.spy_build_s", "s"},
    {"attacks.spy_run_s", "s"},
    {"attacks.probe_error_rate", "ratio"},
    {"attacks.capture_rate", "ratio"},
    {"store.grid_s", "s"},
    {"store.cache_misses", "count"},
    {"store.cache_stored", "count"},
    {"store.workload_builds", "count"},
    {"exec.parallel_efficiency", "ratio"},
    {"obs.overhead_s", "s"},
};

/// Variables the library reads that change results or host time. The
/// benchmark runs with all of them unset except IMPACT_CHECK=0 and
/// IMPACT_THREADS=4 (perfbench/run.py pins them); anything else is refused.
constexpr const char* kEnvVars[] = {
    "IMPACT_STORE_DIR", "IMPACT_STORE",  "IMPACT_STORE_VERIFY",
    "IMPACT_JOURNAL",   "IMPACT_FAULTS", "IMPACT_CHECK",
    "IMPACT_THREADS",   "IMPACT_RESULTS_DIR",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_dir;
  std::string spans;
  std::string write_reference;
};

[[noreturn]] void die(int code, const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(code);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) die(2, "missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') die(2, "bad --seed " + value);
      a.seed_given = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        die(2, "bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") die(2, "--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--reference-dir") {
      a.reference_dir = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--write-reference") {
      a.write_reference = value;
    } else {
      die(2, "unknown flag " + flag);
    }
  }
  if (a.workload.empty()) die(2, "--workload is required");
  if (a.reference_dir.empty() && a.write_reference.empty()) {
    die(2, "--reference-dir is required");
  }
  return a;
}

/// Resolved environment as a JSON object; refuses any unpinned value.
std::string check_environment() {
  JsonObject env;
  for (const char* name : kEnvVars) {
    const char* v = std::getenv(name);
    const std::string value = v == nullptr ? "" : v;
    const bool pinned = (std::strcmp(name, "IMPACT_CHECK") == 0)
                            ? value == "0"
                        : (std::strcmp(name, "IMPACT_THREADS") == 0)
                            ? value == std::to_string(kThreads)
                            : v == nullptr;
    if (!pinned) {
      die(4, std::string("refusing to run with ") + name + "='" + value +
                 "' (run through perfbench/run.py, which pins the "
                 "environment)");
    }
    if (v == nullptr) {
      env.raw(name, "null");
    } else {
      env.string(name, value);
    }
  }
  env.boolean("protocol_checker",
              impact::check::ProtocolChecker::env_enabled());
  return env.str();
}

std::map<std::string, std::string> load_reference(const std::string& dir,
                                                  const std::string& workload) {
  const std::string path = dir + "/" + workload + ".ref";
  std::ifstream in(path);
  if (!in) die(2, "cannot read reference " + path);
  std::map<std::string, std::string> ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) die(2, "malformed reference line: " + line);
    ref[line.substr(0, sp)] = line.substr(sp + 1);
  }
  if (workload == "defense_grid") {
    // The Fig. 11 table exactly as `impact run fig11` prints it below its
    // header, pinned as text; the grid's render op carries its digest.
    std::ifstream fig(dir + "/fig11.txt");
    if (!fig) die(2, "cannot read " + dir + "/fig11.txt");
    std::stringstream text;
    text << fig.rdbuf();
    char buf[40];
    std::snprintf(buf, sizeof buf, "fnv1a64=%016" PRIx64, fnv1a64(text.str()));
    ref["fig11/render"] = buf;
  }
  return ref;
}

/// Op accounting across all passes of the run.
class Ledger {
 public:
  /// Checks `ops` against `expected` (exact result lines); with
  /// `complete`, an expected id the pass did not produce also fails.
  void check(const char* pass, const std::vector<Op>& ops,
             const std::map<std::string, std::string>* expected,
             bool complete) {
    std::map<std::string, bool> seen;
    for (const Op& op : ops) {
      ++attempted_;
      std::string why = op.error;
      if (why.empty() && expected != nullptr) {
        const auto it = expected->find(op.id);
        if (it == expected->end()) {
          why = "no reference result";
        } else if (it->second != op.result) {
          why = "result '" + op.result + "' != reference '" + it->second + "'";
        }
      }
      seen[op.id] = true;
      if (!why.empty()) fail(pass, op.id, why);
    }
    if (complete && expected != nullptr) {
      for (const auto& [id, result] : *expected) {
        if (!seen.contains(id)) {
          ++attempted_;
          fail(pass, id, "op missing from the pass");
        }
      }
    }
  }

  /// A pass that threw before producing its ops.
  void crash(const char* pass, const std::string& why) {
    ++attempted_;
    fail(pass, "*", why);
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failures_.size(); }
  [[nodiscard]] std::string failures_json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + json_quote(failures_[i]);
    }
    return out + "]";
  }

 private:
  void fail(const char* pass, const std::string& id, const std::string& why) {
    failures_.push_back(std::string(pass) + " " + id + ": " + why);
    std::fprintf(stderr, "FAILED %s %s: %s\n", pass, id.c_str(), why.c_str());
  }

  std::size_t attempted_ = 0;
  std::vector<std::string> failures_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::map<std::string, std::string> op_map(const std::vector<Op>& ops) {
  std::map<std::string, std::string> m;
  for (const Op& op : ops) {
    if (op.error.empty()) m[op.id] = op.result;
  }
  return m;
}

std::string list_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(v[i]);
  }
  return out + "]";
}

std::string metrics_json(const Metric* begin, const Metric* end,
                         const std::map<std::string, double>& values) {
  JsonObject out;
  for (const Metric* m = begin; m != end; ++m) {
    const auto it = values.find(m->name);
    JsonObject v;
    v.number("value", it == values.end() ? 0.0 : it->second);
    v.string("unit", m->unit);
    out.raw(m->name, v.str());
  }
  return out.str();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

int run(const Args& args) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    die(3, std::string("refusing to record a non-Release build (build type '") +
               PERFBENCH_BUILD_TYPE + "')");
  }
  const std::string env_json = check_environment();
  const std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (!workload) die(2, "unknown workload " + args.workload);
  const std::uint64_t seed = args.seed_given ? args.seed : workload->paper_seed();

  Ledger ledger;
  const auto guarded = [&](const char* pass, auto&& body) -> bool {
    try {
      body();
      return true;
    } catch (const std::exception& e) {
      ledger.crash(pass, e.what());
    } catch (...) {
      ledger.crash(pass, "unknown exception");
    }
    return false;
  };

  // 1. Reference pass at the paper seed.
  Rep reference;
  guarded("reference",
          [&] { reference = workload->run(workload->paper_seed(), nullptr); });
  if (!args.write_reference.empty()) {
    const std::string path =
        args.write_reference + "/" + args.workload + ".ref";
    std::ofstream out(path);
    out << "# " << args.workload << " at the paper seed "
        << workload->paper_seed() << ": <op> <simulated result>\n";
    for (const Op& op : reference.ops) {
      if (op.id == "fig11/render") continue;  // Pinned as fig11.txt.
      if (!op.error.empty()) die(1, op.id + ": " + op.error);
      out << op.id << ' ' << op.result << '\n';
    }
    return out ? 0 : 1;
  }
  const std::map<std::string, std::string> pinned =
      load_reference(args.reference_dir, args.workload);
  ledger.check("reference", reference.ops, &pinned, true);
  const std::vector<double> paper = workload->paper_headline();
  double gap = 0.0;
  for (std::size_t i = 0; i < paper.size() && i < reference.headline.size(); ++i) {
    gap += std::abs(reference.headline[i] - paper[i]) / paper[i];
  }
  gap = 100.0 * gap / static_cast<double>(paper.size());

  // 2. Warm-up at the run's seed: event counts and the expected results.
  Tracer tracer;
  Rep warm;
  guarded("warmup", [&] { warm = workload->run(seed, &tracer); });
  const std::map<std::string, std::string> warm_results = op_map(warm.ops);
  const bool at_paper_seed = seed == workload->paper_seed();
  const std::map<std::string, std::string>& expected =
      at_paper_seed ? pinned : warm_results;
  ledger.check("warmup", warm.ops, at_paper_seed ? &pinned : nullptr,
               at_paper_seed);

  // 3. Timed repetitions.
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  const Clock::time_point start = Clock::now();
  while (untraced.empty() || (args.trace && traced.empty()) ||
         seconds_between(start, Clock::now()) < args.seconds) {
    const bool trace_this = args.trace && traced.size() < untraced.size();
    Rep rep;
    const bool ok = guarded(trace_this ? "traced" : "timed", [&] {
      rep = workload->run(seed, trace_this ? &tracer : nullptr);
    });
    ledger.check(trace_this ? "traced" : "timed", rep.ops, &expected, true);
    if (!ok) break;
    (trace_this ? traced : untraced).push_back(std::move(rep));
  }

  std::vector<double> wall, setup, cpu, rate, traced_wall;
  for (const Rep& r : untraced) {
    wall.push_back(r.setup_s + r.run_s);
    setup.push_back(r.setup_s);
    cpu.push_back(r.cpu_s);
    rate.push_back(ratio(static_cast<double>(warm.events), r.run_s));
  }
  for (const Rep& r : traced) traced_wall.push_back(r.setup_s + r.run_s);

  std::map<std::string, double> e2e;
  e2e["wall_s"] = median(wall);
  e2e["setup_s"] = median(setup);
  e2e["cpu_s"] = median(cpu);
  e2e["events_per_s"] = median(rate);
  e2e["peak_rss_mb"] = peak_rss_mb();
  e2e["paper_gap_pct"] = gap;

  std::map<std::string, double> layer;
  std::vector<Op> extra_ops;
  if (args.trace && !traced.empty()) {
    // Counts straight from the obs scopes, unless the workload counted
    // them itself (the store.* counts); everything else per traced rep.
    const Rep& first = traced.front();
    const impact::obs::Snapshot& c = first.counters;
    for (const Metric& m : kPerLayer) {
      if (std::strcmp(m.unit, "count") == 0) {
        layer[m.name] = static_cast<double>(c.counter(m.name));
      }
    }
    std::map<std::string, std::vector<double>> per_rep;
    for (const Rep& r : traced) {
      for (const auto& [name, value] : r.layer) per_rep[name].push_back(value);
    }
    for (const auto& [name, values] : per_rep) layer[name] = median(values);
    layer["cache.l1.hit_ratio"] = ratio(
        static_cast<double>(c.counter("cache.l1.hits")),
        static_cast<double>(c.counter("cache.l1.hits") + c.counter("cache.l1.misses")));
    layer["cache.l3.miss_ratio"] = ratio(
        static_cast<double>(c.counter("cache.l3.misses")),
        static_cast<double>(c.counter("cache.l3.hits") + c.counter("cache.l3.misses")));
    layer["tlb.walk_ratio"] = ratio(static_cast<double>(c.counter("tlb.walks")),
                                    static_cast<double>(c.counter("tlb.accesses")));
    layer["dram.row_hit_ratio"] =
        ratio(static_cast<double>(c.counter("dram.hits")),
              static_cast<double>(c.counter("dram.commands")));
    layer["channel.goodput_ratio"] =
        ratio(static_cast<double>(c.counter("channel.bits.correct")),
              static_cast<double>(c.counter("channel.bits.total")));
    std::vector<double> run_s;
    for (const Rep& r : untraced) run_s.push_back(r.run_s);
    layer["dram.ns_per_command"] =
        ratio(1e9 * median(run_s), static_cast<double>(c.counter("dram.commands")));
    layer["obs.overhead_s"] = median(traced_wall) - median(wall);
    guarded("trace_extras", [&] {
      workload->trace_extras(seed, first, tracer, layer, extra_ops);
    });
    ledger.check("trace_extras", extra_ops, nullptr, false);
  }

  if (args.trace && !args.spans.empty()) {
    std::ofstream out(args.spans);
    out << tracer.json() << '\n';
    if (!out) die(1, "cannot write spans to " + args.spans);
  }

  // Results of the run's own seed, so two commits can be compared for
  // identical simulated statistics at any seed.
  std::string results;
  for (const auto& [id, result] : warm_results) results += id + ' ' + result + '\n';
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, fnv1a64(results));

  JsonObject context;
  context.string("build_type", PERFBENCH_BUILD_TYPE);
  context.string("compiler", PERFBENCH_COMPILER);
  context.integer("nproc", std::thread::hardware_concurrency());
  context.integer("threads", kThreads);
  context.raw("env", env_json);

  JsonObject timings;
  timings.raw("wall_s", list_json(wall));
  timings.raw("setup_s", list_json(setup));
  timings.raw("cpu_s", list_json(cpu));
  timings.raw("traced_wall_s", list_json(traced_wall));
  timings.integer("events", static_cast<std::int64_t>(warm.events));

  JsonObject record;
  record.string("workload", args.workload);
  record.integer("seed", static_cast<std::int64_t>(seed));
  record.boolean("trace", args.trace);
  record.raw("context", context.str());
  record.raw("reps", timings.str());
  record.raw("paper_headline", list_json(paper));
  record.raw("simulated_headline", list_json(reference.headline));
  record.string("results_digest", digest);
  record.string("results", results);
  record.raw("failures", ledger.failures_json());
  record.boolean("correct", ledger.failed() == 0);
  record.integer("attempted", static_cast<std::int64_t>(ledger.attempted()));
  record.integer("failed", static_cast<std::int64_t>(ledger.failed()));
  record.raw("metrics", args.trace ? metrics_json(std::begin(kPerLayer),
                                                  std::end(kPerLayer), layer)
                                   : metrics_json(std::begin(kEndToEnd),
                                                  std::end(kEndToEnd), e2e));
  std::printf("%s\n", record.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
