// The tracing half of the obs:: spine: a bounded ring of timestamped
// spans and instant events, exported as Chrome `trace_event` JSON (load in
// chrome://tracing or https://ui.perfetto.dev).
//
// Timestamps are *simulated* cycles, not host time — a trace visualizes
// what the simulated machine did, and recording must never perturb it, so
// no host clock is ever read. The ring overwrites the oldest events when
// full (`dropped()` counts the casualties): a long run keeps its tail,
// which is what you want when inspecting how a transmission ended.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace impact::obs {

/// Chrome phase of an event: complete span ("X") or instant ("i").
enum class Phase : std::uint8_t { kSpan, kInstant };

struct TraceEvent {
  std::string cat;    ///< Layer: "dram", "pim", "channel", "fault", ...
  std::string name;   ///< Command/op within the layer.
  util::Cycle start = 0;
  util::Cycle end = 0;      ///< == start for instants.
  std::uint32_t track = 0;  ///< Rendered as tid: bank id, actor id, ...
  Phase phase = Phase::kSpan;
};

class TraceSession {
 public:
  /// `capacity` bounds memory; 0 is clamped to 1.
  explicit TraceSession(std::size_t capacity = 65536);

  void span(std::string_view cat, std::string_view name, util::Cycle start,
            util::Cycle end, std::uint32_t track = 0);
  void instant(std::string_view cat, std::string_view name, util::Cycle at,
               std::uint32_t track = 0);

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  /// i-th retained event, oldest first.
  [[nodiscard]] const TraceEvent& event(std::size_t i) const;
  void clear();

  /// Writes the whole retained window as Chrome trace_event JSON.
  void write_chrome_json(std::ostream& out) const;
  /// Convenience wrapper: writes to `path`; false on I/O failure.
  bool export_chrome_json(const std::string& path) const;

 private:
  void push(TraceEvent&& ev);

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< Index of the oldest event once the ring is full.
  std::size_t dropped_ = 0;
};

}  // namespace impact::obs
