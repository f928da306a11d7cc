// Tests of the content-addressed experiment cache (src/store/): fingerprint
// canonicalization (order-insensitivity, type tags, schema salt, the golden
// pin), byte-stable record serialization, ResultCache backends (memory,
// disk, corruption handling), WorkloadStore interning (one graph per
// graph fingerprint, built once under concurrent gets), and the CellRunner
// warm-path contract — warm grids bit-identical to cold, serial and
// parallel, with the verify mode aborting on a lying cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "store/cell_runner.hpp"
#include "util/histogram.hpp"

namespace impact {
namespace {

graph::MultiprogConfig tiny_config() {
  graph::MultiprogConfig config;
  config.rmat_scale = 10;
  config.edge_count = 8192;
  config.system.cache_scale = 2048;
  return config;
}

/// A fully-populated record: payload plus every snapshot section.
store::Record sample_record() {
  store::Record rec;
  rec.fp = {0x0123456789abcdefull, 0xfedcba9876543210ull};
  rec.label = "cell with spaces\nand a newline";
  graph::RunStats stats;
  stats.cycles = 123456789;
  stats.instructions = 42;
  stats.accesses = 7;
  stats.llc_misses = 3;
  stats.row_hit_rate = 0.61803398874989484820;
  rec.payload = store::encode(stats);
  rec.snapshot.counters["graph.replay.accesses"] = 1234;
  rec.snapshot.counters["graph.replay.instructions"] = 5678;
  rec.snapshot.gauges["graph.row_hit_rate"] = -0.25;
  util::Histogram h(0.0, 64.0, 4);
  h.add(1.0);
  h.add(65.0);  // Overflow bucket.
  h.add(-1.0);  // Underflow bucket.
  rec.snapshot.dists.emplace("dram.latency", h);
  return rec;
}

// --- Fingerprints -------------------------------------------------------

TEST(Fingerprint, HexRoundTrip) {
  const store::Fingerprint fp{0x0123456789abcdefull, 0xfedcba9876543210ull};
  const std::string hex = fp.hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  store::Fingerprint back;
  ASSERT_TRUE(store::Fingerprint::from_hex(hex, &back));
  EXPECT_EQ(back, fp);
}

TEST(Fingerprint, FromHexRejectsMalformedInput) {
  store::Fingerprint out{1, 2};
  EXPECT_FALSE(store::Fingerprint::from_hex("", &out));
  EXPECT_FALSE(store::Fingerprint::from_hex("0123", &out));
  EXPECT_FALSE(
      store::Fingerprint::from_hex("0123456789abcdeffedcba987654321G", &out));
  EXPECT_FALSE(store::Fingerprint::from_hex(
      "0123456789abcdeffedcba9876543210ff", &out));
  // Untouched on failure.
  EXPECT_EQ(out.hi, 1u);
  EXPECT_EQ(out.lo, 2u);
}

TEST(Canon, FieldOrderDoesNotChangeFingerprint) {
  store::Canon a;
  a.field("seed", std::uint64_t{99});
  a.field("scale", std::uint32_t{15});
  a.field("policy", "open_row");
  store::Canon b;
  b.field("policy", "open_row");
  b.field("scale", std::uint32_t{15});
  b.field("seed", std::uint64_t{99});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Canon, TypeTagsKeepEqualTextDistinct) {
  store::Canon as_uint;
  as_uint.field("x", std::uint64_t{1});
  store::Canon as_string;
  as_string.field("x", "1");
  store::Canon as_double;
  as_double.field("x", 1.0);
  store::Canon as_bool;
  as_bool.field("x", true);
  EXPECT_NE(as_uint.fingerprint(), as_string.fingerprint());
  EXPECT_NE(as_uint.fingerprint(), as_double.fingerprint());
  EXPECT_NE(as_uint.fingerprint(), as_bool.fingerprint());
  EXPECT_NE(as_string.fingerprint(), as_double.fingerprint());
}

TEST(Canon, DuplicateFieldNameThrows) {
  store::Canon c;
  c.field("seed", std::uint64_t{1});
  c.field("seed", std::uint64_t{2});  // Detected at fingerprint time.
  EXPECT_THROW((void)c.fingerprint(), std::invalid_argument);
}

TEST(Canon, SchemaSaltBumpInvalidatesEveryFingerprint) {
  store::Canon current(store::kSchemaVersion);
  current.field("seed", std::uint64_t{99});
  store::Canon bumped(store::kSchemaVersion + 1);
  bumped.field("seed", std::uint64_t{99});
  EXPECT_NE(current.fingerprint(), bumped.fingerprint());
}

// Golden pin: this exact fingerprint must only ever change together with a
// kSchemaVersion bump. If this test fails and you did not bump the schema,
// you changed canonicalization (or a config default) in a way that silently
// re-addresses every cached record — bump store::kSchemaVersion.
TEST(Canon, GoldenFingerprintPinsCanonicalization) {
  ASSERT_EQ(store::kSchemaVersion, 1u);
  const auto fp = store::matrix_cell_fingerprint(
      graph::MultiprogConfig{}, graph::WorkloadKind::kBFS,
      dram::RowPolicy::kOpenRow);
  EXPECT_EQ(fp.hex(), "b1e2ac3b4c39e9041b49caa9e2d493c1");
}

TEST(CanonOf, EveryInputChangeChangesTheFingerprint) {
  const graph::MultiprogConfig base = tiny_config();
  const auto fp = [](const graph::MultiprogConfig& c) {
    return store::matrix_cell_fingerprint(c, graph::WorkloadKind::kBFS,
                                          dram::RowPolicy::kOpenRow);
  };
  const store::Fingerprint reference = fp(base);

  graph::MultiprogConfig seed = base;
  seed.graph_seed = 100;
  EXPECT_NE(fp(seed), reference);

  graph::MultiprogConfig scale = base;
  scale.rmat_scale = 11;
  EXPECT_NE(fp(scale), reference);

  graph::MultiprogConfig edges = base;
  edges.edge_count = 8193;
  EXPECT_NE(fp(edges), reference);

  graph::MultiprogConfig system = base;
  system.system.cache_scale = 4096;
  EXPECT_NE(fp(system), reference);

  graph::MultiprogConfig timing = base;
  timing.system.dram.timing.trp_ns += 1.0;
  EXPECT_NE(fp(timing), reference);

  // Workload and policy.
  EXPECT_NE(store::matrix_cell_fingerprint(base, graph::WorkloadKind::kPR,
                                           dram::RowPolicy::kOpenRow),
            reference);
  EXPECT_NE(store::matrix_cell_fingerprint(base, graph::WorkloadKind::kBFS,
                                           dram::RowPolicy::kClosedRow),
            reference);
}

TEST(CanonOf, FaultProfilesAreOrderSensitiveAndValueSensitive) {
  const std::vector<fault::FaultConfig> faults = {
      {fault::FaultKind::kDramJitter, 0.01, 400, 0, ~0ull},
      {fault::FaultKind::kSemaphoreDrop, 0.05, 0, 0, ~0ull},
  };
  const auto fp_of = [](const std::vector<fault::FaultConfig>& f) {
    store::Canon c;
    c.object("faults",
             store::canon_of(std::span<const fault::FaultConfig>(f)));
    return c.fingerprint();
  };
  const auto reference = fp_of(faults);

  auto tweaked = faults;
  tweaked[0].probability = 0.02;
  EXPECT_NE(fp_of(tweaked), reference);

  tweaked = faults;
  tweaked[1].window_end = 1000;
  EXPECT_NE(fp_of(tweaked), reference);

  // The injector consults configs in list order, so order is semantic.
  const std::vector<fault::FaultConfig> swapped = {faults[1], faults[0]};
  EXPECT_NE(fp_of(swapped), reference);

  const std::vector<fault::FaultConfig> shorter = {faults[0]};
  EXPECT_NE(fp_of(shorter), reference);
}

// --- Records ------------------------------------------------------------

TEST(Record, SerializeParseSerializeIsByteStable) {
  const store::Record rec = sample_record();
  const std::string bytes = store::serialize(rec);
  const auto parsed = store::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->fp, rec.fp);
  EXPECT_EQ(parsed->label, rec.label);
  EXPECT_EQ(parsed->payload, rec.payload);
  EXPECT_EQ(parsed->snapshot.counters, rec.snapshot.counters);
  EXPECT_EQ(parsed->snapshot.gauges, rec.snapshot.gauges);
  // Byte stability: re-serializing the parsed record reproduces the exact
  // bytes — the property the verify mode's one-line comparison rests on.
  EXPECT_EQ(store::serialize(*parsed), bytes);
}

TEST(Record, ParseRejectsCorruption) {
  const std::string bytes = store::serialize(sample_record());
  EXPECT_FALSE(store::parse("").has_value());
  EXPECT_FALSE(store::parse("not a record").has_value());
  // Truncations at every section boundary-ish prefix.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{10}}) {
    EXPECT_FALSE(store::parse(bytes.substr(0, keep)).has_value())
        << "prefix of " << keep << " bytes";
  }
  // Trailing garbage is rejected too: records are exact, not prefixed.
  EXPECT_FALSE(store::parse(bytes + "x").has_value());
  // A flipped fingerprint digit parses (it is still well-formed); the
  // cache layer catches the fp mismatch instead — see
  // ResultCache.CorruptDiskRecordDegradesToMiss.
}

TEST(Record, RunStatsCodecRoundTripsBitwise) {
  graph::RunStats stats;
  stats.cycles = ~0ull;
  stats.instructions = 1;
  stats.accesses = 0;
  stats.llc_misses = 987654321;
  stats.row_hit_rate = 0.1 + 0.2;  // A value with an inexact decimal form.
  const auto back = store::decode_run_stats(store::encode(stats));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, stats);  // operator== is bitwise on row_hit_rate.
  EXPECT_FALSE(store::decode_run_stats("garbage").has_value());
}

TEST(Record, RowCodecRoundTripsArbitraryCells) {
  const std::vector<std::string> row = {
      "", "plain", "with spaces", "12:34", std::string("nul\0byte", 8),
      "newline\nand\ttab"};
  const auto back = store::decode_row(store::encode_row(row));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, row);
  EXPECT_FALSE(store::decode_row("5:short").has_value());
}

// --- ResultCache --------------------------------------------------------

TEST(ResultCache, MemoryHitMissAndStats) {
  store::ResultCache cache;
  const store::Record rec = sample_record();
  EXPECT_FALSE(cache.lookup(rec.fp).has_value());
  EXPECT_FALSE(cache.contains(rec.fp));
  cache.store(rec);
  EXPECT_TRUE(cache.contains(rec.fp));
  std::string raw;
  const auto hit = cache.lookup(rec.fp, &raw);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload, rec.payload);
  EXPECT_EQ(raw, store::serialize(rec));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stored, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
}

TEST(ResultCache, DisabledCacheNeverHitsNorStores) {
  store::ResultCache::Options options;
  options.enabled = false;
  store::ResultCache cache(options);
  const store::Record rec = sample_record();
  cache.store(rec);
  EXPECT_FALSE(cache.lookup(rec.fp).has_value());
  EXPECT_FALSE(cache.contains(rec.fp));
  EXPECT_EQ(cache.stats().stored, 0u);
}

TEST(ResultCache, EnvFlagsAcceptOnlyZeroAndOne) {
  // Exactly "0"/"1" set a flag; empty means unset; anything else warns
  // and keeps the default (IMPACT_STORE on, IMPACT_STORE_VERIFY off).
  ::unsetenv("IMPACT_STORE_DIR");
  const struct {
    const char* value;
    bool enabled;
    bool verify;
  } kCases[] = {
      {"0", false, false}, {"1", true, true},   {"", true, false},
      {"false", true, false}, {"off", true, false}, {"yes", true, false},
      {"00", true, false},
  };
  for (const auto& c : kCases) {
    ::setenv("IMPACT_STORE", c.value, 1);
    ::setenv("IMPACT_STORE_VERIFY", c.value, 1);
    const auto options = store::ResultCache::options_from_env();
    EXPECT_EQ(options.enabled, c.enabled) << "'" << c.value << "'";
    EXPECT_EQ(options.verify, c.verify) << "'" << c.value << "'";
  }
  ::unsetenv("IMPACT_STORE");
  ::unsetenv("IMPACT_STORE_VERIFY");
  const auto unset = store::ResultCache::options_from_env();
  EXPECT_TRUE(unset.enabled);
  EXPECT_FALSE(unset.verify);
}

class ScratchDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("impact_store_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(ScratchDir, DiskBackendSurvivesAcrossCacheInstances) {
  const store::Record rec = sample_record();
  store::ResultCache::Options options;
  options.disk_dir = dir_.string();
  {
    store::ResultCache writer(options);
    writer.store(rec);
  }
  store::ResultCache reader(options);
  EXPECT_TRUE(reader.contains(rec.fp));
  const auto hit = reader.lookup(rec.fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(store::serialize(*hit), store::serialize(rec));
  const auto stats = reader.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  // The on-disk file is the canonical bytes, named by the fingerprint.
  std::ifstream in(dir_ / (rec.fp.hex() + ".rec"), std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, store::serialize(rec));
}

TEST_F(ScratchDir, CorruptDiskRecordDegradesToMiss) {
  const store::Record rec = sample_record();
  store::ResultCache::Options options;
  options.disk_dir = dir_.string();
  store::ResultCache cache(options);

  // Garbage under the right name: parse fails -> rejected, not a crash.
  {
    std::ofstream out(dir_ / (rec.fp.hex() + ".rec"), std::ios::binary);
    out << "garbage bytes";
  }
  EXPECT_FALSE(cache.lookup(rec.fp).has_value());

  // A well-formed record filed under the WRONG fingerprint: the embedded
  // fp disagrees with the name, so the cache must reject it too.
  const store::Fingerprint other{1, 2};
  {
    std::ofstream out(dir_ / (other.hex() + ".rec"), std::ios::binary);
    out << store::serialize(rec);
  }
  EXPECT_FALSE(cache.lookup(other).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

// --- WorkloadStore ------------------------------------------------------

TEST(WorkloadStore, InternsByInputFingerprint) {
  const graph::MultiprogConfig config = tiny_config();
  store::WorkloadStore workloads;
  const auto* a = workloads.get(config, graph::WorkloadKind::kBFS);
  const auto* b = workloads.get(config, graph::WorkloadKind::kBFS);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b) << "same input fingerprint must share one build";
  EXPECT_EQ(workloads.size(), 1u);

  // A system-config change does NOT reach graph::build_input, so it must
  // not re-build the interned input either.
  graph::MultiprogConfig system_only = config;
  system_only.system.cache_scale = 4096;
  EXPECT_EQ(workloads.get(system_only, graph::WorkloadKind::kBFS), a);
  EXPECT_EQ(workloads.size(), 1u);

  // Seed and kind changes do.
  graph::MultiprogConfig reseeded = config;
  reseeded.graph_seed = 1234;
  EXPECT_NE(workloads.get(reseeded, graph::WorkloadKind::kBFS), a);
  EXPECT_NE(workloads.get(config, graph::WorkloadKind::kPR), a);
  EXPECT_EQ(workloads.size(), 3u);
}

TEST(WorkloadStore, KindsOfOneConfigShareOneGraph) {
  const graph::MultiprogConfig config = tiny_config();
  store::WorkloadStore workloads;
  const graph::CsrGraph* shared =
      workloads.get(config, graph::WorkloadKind::kBFS)->graph.get();
  ASSERT_NE(shared, nullptr);
  for (const graph::WorkloadKind kind : graph::kAllWorkloads) {
    EXPECT_EQ(workloads.get(config, kind)->graph.get(), shared)
        << to_string(kind);
  }
  EXPECT_EQ(workloads.graph_builds(), 1u);
  EXPECT_EQ(workloads.size(), std::size(graph::kAllWorkloads))
      << "size() counts inputs, not graphs";

  graph::MultiprogConfig reseeded = config;
  reseeded.graph_seed = 1234;
  EXPECT_NE(workloads.get(reseeded, graph::WorkloadKind::kBFS)->graph.get(),
            shared);
  EXPECT_EQ(workloads.graph_builds(), 2u);
  EXPECT_EQ(workloads.size(), std::size(graph::kAllWorkloads) + 1);
}

TEST(WorkloadStore, ConcurrentGetsBuildOneGraphAndSerialTraces) {
  const graph::MultiprogConfig config = tiny_config();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kKinds = std::size(graph::kAllWorkloads);
  store::WorkloadStore workloads;
  const graph::WorkloadInput* got[kThreads][kKinds] = {};
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) {
      }
      // Each thread walks the kinds from a different start.
      for (std::size_t i = 0; i < kKinds; ++i) {
        const std::size_t k = (i + t) % kKinds;
        got[t][k] = workloads.get(config, graph::kAllWorkloads[k]);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(workloads.graph_builds(), 1u);
  EXPECT_EQ(workloads.size(), kKinds);
  const std::shared_ptr<const graph::CsrGraph> serial_graph =
      graph::build_graph(config);
  for (std::size_t k = 0; k < kKinds; ++k) {
    const graph::WorkloadKind kind = graph::kAllWorkloads[k];
    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(got[t][k], got[0][k]) << to_string(kind);
      EXPECT_EQ(got[t][k]->graph, got[0][0]->graph) << to_string(kind);
    }
    const graph::WorkloadTrace want =
        graph::build_trace(kind, *serial_graph);
    const graph::WorkloadTrace& trace = got[0][k]->trace;
    EXPECT_EQ(trace.kind, kind);
    EXPECT_EQ(trace.checksum, want.checksum) << to_string(kind);
    ASSERT_EQ(trace.ops.size(), want.ops.size()) << to_string(kind);
    const auto diff =
        std::mismatch(trace.ops.begin(), trace.ops.end(), want.ops.begin());
    EXPECT_EQ(diff.first, trace.ops.end())
        << to_string(kind) << ": first differing op at "
        << diff.first - trace.ops.begin();
  }
  EXPECT_EQ(got[0][0]->graph->offsets(), serial_graph->offsets());
  EXPECT_EQ(got[0][0]->graph->edge_list(), serial_graph->edge_list());
}

// --- CellRunner ---------------------------------------------------------

constexpr dram::RowPolicy kTwoPolicies[] = {dram::RowPolicy::kOpenRow,
                                            dram::RowPolicy::kClosedRow};
constexpr graph::WorkloadKind kTwoKinds[] = {graph::WorkloadKind::kBFS,
                                             graph::WorkloadKind::kPR};

TEST(CellRunner, WarmDefenseMatrixIsBitIdenticalSerialAndParallel) {
  const graph::MultiprogConfig config = tiny_config();
  store::ResultCache cache;
  store::WorkloadStore workloads;

  store::CellRunner cold_runner(cache, workloads, nullptr);
  const auto cold = cold_runner.defense_matrix(config, kTwoKinds, kTwoPolicies);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.report.cache_hits, 0u);
  EXPECT_EQ(cold.report.cache_stored, 4u);

  const auto expect_identical = [&](const store::CellRunner::MatrixResult& r,
                                    const char* what) {
    ASSERT_TRUE(r.ok()) << what;
    // 4 policy cells + 2 build tasks, all probe-satisfied when fully warm.
    EXPECT_EQ(r.report.cache_hits, r.report.tasks) << what;
    EXPECT_EQ(r.report.cache_stored, 0u) << what;
    for (std::size_t w = 0; w < std::size(kTwoKinds); ++w) {
      for (std::size_t p = 0; p < std::size(kTwoPolicies); ++p) {
        EXPECT_TRUE(r.cells[w][p].cached) << what;
        EXPECT_EQ(r.cells[w][p].stats, cold.cells[w][p].stats) << what;
        EXPECT_EQ(r.cells[w][p].snapshot.counters,
                  cold.cells[w][p].snapshot.counters)
            << what;
      }
    }
  };

  store::CellRunner warm_serial(cache, workloads, nullptr);
  expect_identical(warm_serial.defense_matrix(config, kTwoKinds, kTwoPolicies),
                   "warm serial");
  exec::ThreadPool pool(4);
  store::CellRunner warm_pool(cache, workloads, &pool);
  expect_identical(warm_pool.defense_matrix(config, kTwoKinds, kTwoPolicies),
                   "warm pool(4)");
  // A fully warm grid builds no inputs beyond the cold run's two.
  EXPECT_EQ(workloads.size(), 2u);
}

TEST(CellRunner, DefenseTradeoffsGridIsASubsetOfFig11) {
  // defense_tradeoffs' 3-policy grid shares matrix_cell_fingerprints with
  // 15 of fig11's 20 cells, so on a shared store it is pure lookups.
  constexpr dram::RowPolicy kFig11[] = {
      dram::RowPolicy::kOpenRow, dram::RowPolicy::kClosedRow,
      dram::RowPolicy::kConstantTime, dram::RowPolicy::kAdaptive};
  constexpr dram::RowPolicy kTradeoffs[] = {dram::RowPolicy::kOpenRow,
                                            dram::RowPolicy::kClosedRow,
                                            dram::RowPolicy::kConstantTime};
  const graph::MultiprogConfig config = tiny_config();
  store::ResultCache cache;
  store::WorkloadStore workloads;
  store::CellRunner runner(cache, workloads, nullptr);

  const auto fig11 = runner.defense_matrix(config, graph::kAllWorkloads, kFig11);
  ASSERT_TRUE(fig11.ok());
  const auto before = cache.stats();
  const auto tradeoffs =
      runner.defense_matrix(config, graph::kAllWorkloads, kTradeoffs);
  ASSERT_TRUE(tradeoffs.ok());
  const auto after = cache.stats();
  EXPECT_EQ(after.hits - before.hits, 15u);
  EXPECT_EQ(after.misses - before.misses, 0u);
  EXPECT_EQ(after.stored - before.stored, 0u);
  EXPECT_EQ(tradeoffs.report.cache_stored, 0u);
  for (std::size_t w = 0; w < std::size(graph::kAllWorkloads); ++w) {
    for (std::size_t p = 0; p < std::size(kTradeoffs); ++p) {
      EXPECT_TRUE(tradeoffs.cells[w][p].cached) << w << "," << p;
      EXPECT_EQ(tradeoffs.cells[w][p].stats, fig11.cells[w][p].stats)
          << w << "," << p;
    }
  }
}

TEST(CellRunner, RowsReplayFromCacheWithoutRunningCells) {
  store::ResultCache cache;
  store::WorkloadStore workloads;
  std::atomic<int> runs{0};
  const auto fingerprint_of = [](std::size_t i) {
    store::Canon c;
    c.field("cell", "test.rows");
    c.field("i", static_cast<std::uint64_t>(i));
    return c.fingerprint();
  };
  const auto run = [&runs](std::size_t i) {
    ++runs;
    return std::vector<std::string>{"row", std::to_string(i * i)};
  };

  store::CellRunner cold_runner(cache, workloads, nullptr);
  const auto cold = cold_runner.rows("test.rows", 3, fingerprint_of, run);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(runs.load(), 3);
  ASSERT_EQ(cold.rows.size(), 3u);
  EXPECT_EQ(cold.rows[2], (std::vector<std::string>{"row", "4"}));

  store::CellRunner warm_runner(cache, workloads, nullptr);
  const auto warm = warm_runner.rows("test.rows", 3, fingerprint_of, run);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(runs.load(), 3) << "warm cells must not run";
  EXPECT_EQ(warm.rows, cold.rows);
  EXPECT_EQ(warm.report.cache_hits, 3u);
}

TEST(CellRunnerDeathTest, VerifyModeAbortsOnCacheDivergence) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  store::ResultCache::Options options;
  options.verify = true;
  store::ResultCache cache(options);
  store::WorkloadStore workloads;

  // Poison the cache: a well-formed record under cell 0's fingerprint
  // whose payload re-simulation cannot reproduce.
  const auto fingerprint_of = [](std::size_t) {
    store::Canon c;
    c.field("cell", "test.verify");
    return c.fingerprint();
  };
  store::Record lie;
  lie.fp = fingerprint_of(0);
  lie.label = "test.verify[0]";
  lie.payload = store::encode_row({"not", "what", "run", "returns"});
  cache.store(lie);

  store::CellRunner runner(cache, workloads, nullptr);
  EXPECT_DEATH(
      {
        (void)runner.rows("test.verify", 1, fingerprint_of, [](std::size_t) {
          return std::vector<std::string>{"fresh"};
        });
      },
      "cache divergence");
}

TEST(CellRunner, VerifyModePassesWhenCacheIsHonest) {
  store::ResultCache::Options options;
  options.verify = true;
  store::ResultCache cache(options);
  store::WorkloadStore workloads;
  const auto fingerprint_of = [](std::size_t i) {
    store::Canon c;
    c.field("cell", "test.verify_ok");
    c.field("i", static_cast<std::uint64_t>(i));
    return c.fingerprint();
  };
  const auto run = [](std::size_t i) {
    return std::vector<std::string>{std::to_string(i)};
  };
  store::CellRunner runner(cache, workloads, nullptr);
  const auto cold = runner.rows("v", 2, fingerprint_of, run);
  ASSERT_TRUE(cold.ok());
  // Second pass re-simulates (verify reports misses) and audits the bytes;
  // an honest cache survives.
  const auto audit = runner.rows("v", 2, fingerprint_of, run);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit.report.cache_hits, 0u);
  EXPECT_EQ(audit.rows, cold.rows);
}

}  // namespace
}  // namespace impact
