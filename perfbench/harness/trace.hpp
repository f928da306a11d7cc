// Host-time measurement for the benchmark harness: stopwatches for the
// set-up and run phases, and the in-memory span log of a traced run.
//
// Spans are recorded only around the harness's own calls into a layer's
// public functions (one span per call, parent = the span that was open on
// the same thread when it started); the simulator itself is not
// instrumented here. Spans may be opened from several threads at once.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of the process so far, in MB.
[[nodiscard]] inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Adds the wall time of its own lifetime to `*total`.
class Stopwatch {
 public:
  explicit Stopwatch(double& total) : total_(total), start_(Clock::now()) {}
  ~Stopwatch() { total_ += seconds_between(start_, Clock::now()); }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  double& total_;
  Clock::time_point start_;
};

class Tracer {
 public:
  struct Record {
    std::string name;  ///< "<layer>:<public call>", e.g. "graph:build_input".
    int parent = -1;   ///< Index of the enclosing span, -1 at top level.
    double start_s = 0.0;  ///< Relative to the tracer's creation.
    double end_s = 0.0;
  };

  /// RAII span; a default-constructed one (untraced run) records nothing.
  class Span {
   public:
    Span() = default;
    Span(Tracer* tracer, std::string_view name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
  };

  /// Number of spans recorded so far.
  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(mu_);
    return records_.size();
  }

  /// Summed duration of the spans named `name` among records [from, to).
  [[nodiscard]] double total(std::string_view name, std::size_t from,
                             std::size_t to) const;

  /// Self time of every span name (duration minus the part covered by its
  /// direct children), summed, as a JSON object; plus the raw span list.
  [[nodiscard]] std::string json() const;

 private:
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Record> records_;  ///< Guarded by mu_.
};

/// Span over `name` when `tracer` is non-null.
[[nodiscard]] inline Tracer::Span span(Tracer* tracer, std::string_view name) {
  return tracer == nullptr ? Tracer::Span() : Tracer::Span(tracer, name);
}

}  // namespace perfbench
