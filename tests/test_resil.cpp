// Crash tolerance: kill-torture (SIGKILL a child mid-sweep, re-run it over
// the same on-disk ResultCache, pin bit-identity against an uninterrupted
// reference — serial and pools {2,8}) and durable store writes.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "store/cell_runner.hpp"

namespace impact {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("resil_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Kill-torture. A child process runs a disk-cached CellRunner grid and
// SIGKILLs itself mid-sweep (deterministically: the victim cell first
// waits until the store holds at least one durable record, so a re-run
// always has something to resume from). A second child over the same
// store must retire the same cells with the same bytes as an
// uninterrupted reference run, satisfying at least one cell from the
// cache. Defined first in this file so no earlier in-process test has
// started (and joined) threads before the forks.
// ---------------------------------------------------------------------------

constexpr std::size_t kTortureCells = 8;

store::Fingerprint torture_fingerprint(std::size_t i) {
  store::Canon c;
  c.field("cell", "resil.torture");
  c.field("i", static_cast<std::uint64_t>(i));
  return c.fingerprint();
}

/// True once `dir` holds a renamed (durable) `.rec` file.
bool has_durable_record(const fs::path& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".rec") return true;
  }
  return false;
}

/// Runs the torture grid in the calling (child) process and writes a diag
/// file: "tasks completed failed skipped cache_hits\n" followed by the
/// rendered rows. `kill_at >= 0` makes that cell SIGKILL the process on
/// the first run only (a marker file distinguishes runs).
void child_run_grid(const fs::path& base, unsigned pool_threads, int kill_at,
                    const fs::path& diag) {
  store::ResultCache::Options cache_options;
  cache_options.disk_dir = (base / "store").string();
  store::ResultCache cache(cache_options);
  store::WorkloadStore workloads;
  std::unique_ptr<exec::ThreadPool> pool;
  if (pool_threads > 1) {
    pool = std::make_unique<exec::ThreadPool>(pool_threads);
  }
  store::CellRunner runner(cache, workloads, pool.get());

  const fs::path marker = base / "killed";
  const auto result = runner.rows(
      "resil.torture", kTortureCells, torture_fingerprint,
      [&](std::size_t i) {
        if (kill_at >= 0 && i == static_cast<std::size_t>(kill_at) &&
            !fs::exists(marker)) {
          { std::ofstream out(marker); out << "1\n"; }
          // Guarantee the re-run has something to resume: wait for one
          // durable record before dying. Serial runs already published
          // every earlier cell; parallel runs wait out their siblings.
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (!has_durable_record(base / "store") &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          (void)::raise(SIGKILL);
        }
        return std::vector<std::string>{std::to_string(i),
                                        std::to_string(i * i + 7)};
      });

  std::ofstream out(diag, std::ios::binary);
  out << result.report.tasks << ' ' << result.report.completed << ' '
      << result.report.failed << ' ' << result.report.skipped << ' '
      << result.report.cache_hits << '\n';
  for (const auto& row : result.rows) {
    for (const auto& cell : row) out << cell << '\x1f';
    out << '\n';
  }
}

/// Forks, runs the grid in the child, and returns the child's wait status.
int spawn_grid(const fs::path& base, unsigned pool_threads, int kill_at,
               const fs::path& diag) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    child_run_grid(base, pool_threads, kill_at, diag);
    ::_exit(0);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  int status = 0;
  (void)::waitpid(pid, &status, 0);
  return status;
}

struct DiagOutcome {
  std::size_t tasks = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  std::size_t cache_hits = 0;
  std::string rows;
};

DiagOutcome parse_diag(const fs::path& diag) {
  DiagOutcome out;
  const std::string bytes = read_file(diag);
  std::istringstream in(bytes);
  in >> out.tasks >> out.completed >> out.failed >> out.skipped >>
      out.cache_hits;
  const auto newline = bytes.find('\n');
  if (newline != std::string::npos) out.rows = bytes.substr(newline + 1);
  return out;
}

TEST(ResilKillTorture, ResumedRunReproducesUninterruptedRun) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("pool threads = " + std::to_string(threads));
    const fs::path ref_base = fresh_dir("ref" + std::to_string(threads));
    const fs::path base = fresh_dir("tort" + std::to_string(threads));

    // Uninterrupted reference (own store).
    const int ref_status =
        spawn_grid(ref_base, threads, -1, ref_base / "diag");
    ASSERT_TRUE(WIFEXITED(ref_status) && WEXITSTATUS(ref_status) == 0);
    const DiagOutcome ref = parse_diag(ref_base / "diag");
    ASSERT_EQ(ref.tasks, kTortureCells);
    ASSERT_EQ(ref.completed, kTortureCells);
    ASSERT_EQ(ref.cache_hits, 0u);

    // Victim: dies by SIGKILL mid-sweep, after >= 1 durable record.
    const int killed_status = spawn_grid(base, threads, 3, base / "unused");
    ASSERT_TRUE(WIFSIGNALED(killed_status));
    ASSERT_EQ(WTERMSIG(killed_status), SIGKILL);
    ASSERT_FALSE(fs::exists(base / "unused")) << "victim wrote its diag";
    ASSERT_TRUE(has_durable_record(base / "store"));

    // Re-run over the same store: the grid must finish and be
    // bit-identical to the reference (cache_hits legitimately differs — it
    // describes *how* cells were satisfied, not the result).
    const int resumed_status = spawn_grid(base, threads, 3, base / "diag");
    ASSERT_TRUE(WIFEXITED(resumed_status) &&
                WEXITSTATUS(resumed_status) == 0);
    const DiagOutcome resumed = parse_diag(base / "diag");
    EXPECT_EQ(resumed.tasks, ref.tasks);
    EXPECT_EQ(resumed.completed, ref.completed);
    EXPECT_EQ(resumed.failed, ref.failed);
    EXPECT_EQ(resumed.skipped, ref.skipped);
    EXPECT_EQ(resumed.rows, ref.rows);
    EXPECT_GE(resumed.cache_hits, 1u)
        << "the re-run satisfied nothing from the interrupted run's store";

    fs::remove_all(ref_base);
    fs::remove_all(base);
  }
}

// ---------------------------------------------------------------------------
// Store durability satellite.
// ---------------------------------------------------------------------------

TEST(ResilStore, DiskWritesAreFsyncedBeforeRename) {
  const fs::path dir = fresh_dir("fsync");
  store::ResultCache::Options options;
  options.disk_dir = dir.string();
  store::ResultCache cache(options);

  store::Canon c;
  c.field("cell", "resil.fsync");
  store::Record record;
  record.fp = c.fingerprint();
  record.label = "fsync";
  record.payload = store::encode_row({"x"});
  cache.store(record);

  // Data fsync + directory fsync per disk write; the temp file is gone.
  EXPECT_GE(cache.stats().fsyncs, 2u);
  bool tmp_left = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    tmp_left = tmp_left || entry.path().extension() == ".tmp";
  }
  EXPECT_FALSE(tmp_left);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace impact
