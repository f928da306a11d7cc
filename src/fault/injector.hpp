// Deterministic fault injection for robustness experiments.
//
// The paper's channels assume a quiet, well-behaved system; §5.1 and §5.3
// show that noise and interference degrade accuracy, and a real attacker
// must *recover* from perturbation rather than crash. The Injector is the
// controlled source of that perturbation: it attaches to the seams the
// simulator already exposes (the MemoryController command path for DRAM
// faults, the channel driver's synchronization loop for actor-level faults)
// and fires seeded, schedule-independent faults inside configurable
// activation windows.
//
// Determinism contract: every decision draws from a per-fault-kind RNG
// stream seeded once from (seed, kind). Within one simulated system the
// command sequence is deterministic, so the decision sequence is too —
// independent of host thread count or scheduling. A sweep that gives each
// cell its own system + Injector (seeded via exec::derive_seed) therefore
// produces bit-identical results across {1,2,8}-thread pools, the property
// tests/test_fault.cpp pins.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace impact::fault {

/// The fault classes the simulator can inject.
enum class FaultKind : std::uint8_t {
  kDramJitter,      ///< Extra cycles on a DRAM access (bus/ECC retries).
  kRowCloneDrop,    ///< A RowClone leg silently fails (no copy, no ACTs).
  kRefreshStorm,    ///< Spurious PRE before an access (refresh burst).
  kSemaphoreDrop,   ///< A semaphore post is lost (missed wakeup).
  kSemaphoreDelay,  ///< A semaphore post is delivered late (descheduling).
  kClockDrift,      ///< Receiver-side clock drift per synchronization batch.
};

inline constexpr std::size_t kFaultKinds = 6;

[[nodiscard]] constexpr const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kDramJitter:
      return "dram-jitter";
    case FaultKind::kRowCloneDrop:
      return "rowclone-drop";
    case FaultKind::kRefreshStorm:
      return "refresh-storm";
    case FaultKind::kSemaphoreDrop:
      return "semaphore-drop";
    case FaultKind::kSemaphoreDelay:
      return "semaphore-delay";
    case FaultKind::kClockDrift:
      return "clock-drift";
  }
  return "?";
}

/// One composable fault source. A fault fires at each opportunity (one DRAM
/// access, one semaphore post, ...) with `probability`, but only while the
/// opportunity's simulated time lies in [window_begin, window_end].
struct FaultConfig {
  FaultKind kind = FaultKind::kDramJitter;
  double probability = 0.0;
  /// Cycles added per firing for the additive kinds (jitter, delay, drift);
  /// ignored by the binary kinds (drop, storm).
  util::Cycle magnitude = 0;
  util::Cycle window_begin = 0;
  util::Cycle window_end = ~0ull;

  [[nodiscard]] bool active_at(util::Cycle now) const {
    return now >= window_begin && now <= window_end;
  }
};

/// Per-kind observability counters: how often each seam was consulted and
/// how often a fault actually fired there.
struct FaultCounters {
  std::array<std::uint64_t, kFaultKinds> opportunities{};
  std::array<std::uint64_t, kFaultKinds> fired{};

  [[nodiscard]] std::uint64_t fired_of(FaultKind k) const {
    return fired[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t total_fired() const {
    std::uint64_t n = 0;
    for (const auto f : fired) n += f;
    return n;
  }
};

class Injector {
 public:
  Injector(std::uint64_t seed, std::vector<FaultConfig> faults);

  // --- DRAM seams (consulted by MemoryController) ----------------------
  /// Extra cycles to add to the access completing around `now` (0 = none).
  [[nodiscard]] util::Cycle access_jitter(util::Cycle now);
  /// True: this RowClone leg silently fails (row buffer undisturbed, data
  /// not copied) — the channel-level bit flip of the PuM attack.
  [[nodiscard]] bool drop_rowclone_leg(util::Cycle now);
  /// True: precharge the target bank before the access (refresh burst
  /// closing the row the receiver relies on).
  [[nodiscard]] bool refresh_storm(util::Cycle now);

  // --- Synchronization seams (consulted by the channel driver) ----------
  /// True: this semaphore post is lost; the waiter must time out.
  [[nodiscard]] bool drop_post(util::Cycle now);
  /// Delivery delay, in cycles, for the post issued at `now` (0 = none).
  [[nodiscard]] util::Cycle post_delay(util::Cycle now);
  /// Receiver clock drift, in cycles, applied after the batch wait.
  [[nodiscard]] util::Cycle clock_drift(util::Cycle now);

  [[nodiscard]] const FaultCounters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<FaultConfig>& faults() const {
    return faults_;
  }

  // --- Profiles ---------------------------------------------------------
  /// Named fault profiles: "off" (empty), "light" (rare jitter + the odd
  /// dropped post), "heavy" (all six kinds at rates that force recovery
  /// machinery to work every message). Throws on an unknown name.
  [[nodiscard]] static std::vector<FaultConfig> profile(std::string_view name);

 private:
  /// Draws every matching config of `kind`; true if any fired.
  bool binary_fault(FaultKind kind, util::Cycle now);
  /// Draws every matching config of `kind`; sum of fired magnitudes.
  util::Cycle additive_fault(FaultKind kind, util::Cycle now);

  std::vector<FaultConfig> faults_;
  /// One RNG stream per fault kind: the draw sequence of one seam never
  /// depends on how often the other seams were consulted.
  std::vector<util::Xoshiro256> streams_;
  FaultCounters counters_;
  /// Ambient trace at construction time; every firing becomes an instant
  /// event ("fault" category, track = fault kind). Recording never touches
  /// the RNG streams, so traced and untraced runs stay bit-identical.
  obs::TraceSession* obs_trace_ = nullptr;
};

}  // namespace impact::fault
