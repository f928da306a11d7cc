#include "fault/injector.hpp"


#include "obs/scope.hpp"
#include "util/assert.hpp"

namespace impact::fault {

Injector::Injector(std::uint64_t seed, std::vector<FaultConfig> faults)
    : faults_(std::move(faults)) {
  for (const auto& f : faults_) {
    util::check(f.probability >= 0.0 && f.probability <= 1.0,
                "FaultConfig: probability must be in [0,1]");
    util::check(f.window_begin <= f.window_end,
                "FaultConfig: window_begin must not exceed window_end");
  }
  streams_.reserve(kFaultKinds);
  for (std::size_t k = 0; k < kFaultKinds; ++k) {
    // Golden-ratio spacing before the splitmix64 avalanche inside reseed,
    // the same stream-splitting scheme as exec::derive_seed.
    streams_.emplace_back(seed ^ (0x9E3779B97F4A7C15ull * (k + 1)));
  }
  obs_trace_ = obs::current_trace();
}

bool Injector::binary_fault(FaultKind kind, util::Cycle now) {
  const auto k = static_cast<std::size_t>(kind);
  ++counters_.opportunities[k];
  bool fired = false;
  for (const auto& f : faults_) {
    if (f.kind != kind || !f.active_at(now)) continue;
    if (streams_[k].chance(f.probability)) fired = true;
  }
  if (fired) {
    ++counters_.fired[k];
    if (obs_trace_) {
      obs_trace_->instant("fault", to_string(kind), now,
                          static_cast<std::uint32_t>(k));
    }
  }
  return fired;
}

util::Cycle Injector::additive_fault(FaultKind kind, util::Cycle now) {
  const auto k = static_cast<std::size_t>(kind);
  ++counters_.opportunities[k];
  util::Cycle total = 0;
  for (const auto& f : faults_) {
    if (f.kind != kind || !f.active_at(now)) continue;
    if (streams_[k].chance(f.probability)) total += f.magnitude;
  }
  if (total > 0) {
    ++counters_.fired[k];
    if (obs_trace_) {
      obs_trace_->instant("fault", to_string(kind), now,
                          static_cast<std::uint32_t>(k));
    }
  }
  return total;
}

util::Cycle Injector::access_jitter(util::Cycle now) {
  return additive_fault(FaultKind::kDramJitter, now);
}

bool Injector::drop_rowclone_leg(util::Cycle now) {
  return binary_fault(FaultKind::kRowCloneDrop, now);
}

bool Injector::refresh_storm(util::Cycle now) {
  return binary_fault(FaultKind::kRefreshStorm, now);
}

bool Injector::drop_post(util::Cycle now) {
  return binary_fault(FaultKind::kSemaphoreDrop, now);
}

util::Cycle Injector::post_delay(util::Cycle now) {
  return additive_fault(FaultKind::kSemaphoreDelay, now);
}

util::Cycle Injector::clock_drift(util::Cycle now) {
  return additive_fault(FaultKind::kClockDrift, now);
}

std::vector<FaultConfig> Injector::profile(std::string_view name) {
  if (name == "off" || name == "none" || name.empty()) return {};
  if (name == "light") {
    return {
        {FaultKind::kDramJitter, 0.01, 300, 0, ~0ull},
        {FaultKind::kSemaphoreDrop, 0.02, 0, 0, ~0ull},
    };
  }
  if (name == "heavy") {
    return {
        {FaultKind::kDramJitter, 0.05, 400, 0, ~0ull},
        {FaultKind::kRowCloneDrop, 0.02, 0, 0, ~0ull},
        {FaultKind::kRefreshStorm, 0.01, 0, 0, ~0ull},
        {FaultKind::kSemaphoreDrop, 0.08, 0, 0, ~0ull},
        {FaultKind::kSemaphoreDelay, 0.05, 2000, 0, ~0ull},
        {FaultKind::kClockDrift, 0.05, 500, 0, ~0ull},
    };
  }
  util::check(false, "Injector::profile: unknown profile name (expected "
                     "off|light|heavy)");
  return {};
}

}  // namespace impact::fault
