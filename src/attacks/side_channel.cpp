#include "attacks/side_channel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "attacks/common.hpp"
#include "channel/threshold.hpp"
#include "util/assert.hpp"

namespace impact::attacks {

namespace {

/// Victim touches recorded per bank between two attacker probes.
struct Window {
  std::uint32_t seed_touches = 0;
  bool any_disturbance = false;
};

}  // namespace

ReadMappingSpy::ReadMappingSpy(SideChannelConfig config)
    : config_(config), rng_(config.seed) {
  util::check(config_.banks >= 16, "SideChannelConfig: needs >= 16 banks");
  // run() replays the victim's trace, which an empty workload leaves empty.
  util::check(config_.reads > 0, "SideChannelConfig: needs >= 1 read");

  system_config_.dram.channels = 1;
  system_config_.dram.ranks = 1;
  system_config_.dram.banks_per_rank = config_.banks;
  system_config_.dram.rows_per_bank = config_.rows_per_bank;
  system_config_.dram.subarray_rows =
      std::min(system_config_.dram.subarray_rows, config_.rows_per_bank);
  system_config_.seed = config_.seed;

  // The seed-table constructor validates its geometry and minimizer config;
  // it runs before the (up to 8192-bank) memory system is built.
  config_.table.row_bytes = system_config_.dram.row_bytes;
  table_ = std::make_unique<genomics::SeedTable>(config_.table,
                                                 config_.banks);
  system_ = std::make_unique<sys::MemorySystem>(system_config_);

  // Build the shared reference and index it into the bank-striped table.
  util::Xoshiro256 genome_rng(config_.seed ^ 0x9E3779B97F4A7C15ull);
  reference_ = std::make_unique<genomics::Genome>(
      genomics::Genome::synthesize(config_.genome_length, genome_rng));
  table_->build(*reference_);

  victim_pei_ =
      std::make_unique<pim::PeiDispatcher>(config_.pei, *system_, kVictim);
  attacker_pei_ =
      std::make_unique<pim::PeiDispatcher>(config_.pei, *system_, kReceiver);
}

sys::VAddr ReadMappingSpy::victim_vaddr(const genomics::TableLocation& loc) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(loc.bank) << 32) | loc.row;
  auto it = victim_rows_.find(key);
  if (it == victim_rows_.end()) {
    const auto span = system_->vmem().map_row(kVictim, loc.bank, loc.row);
    system_->warm_span(kVictim, span);
    it = victim_rows_.emplace(key, span.vaddr).first;
  }
  return it->second + loc.col;
}

void ReadMappingSpy::victim_step(std::size_t touch_index) {
  const auto& touch = victim_trace_[touch_index];
  victim_clock_ += config_.victim_compute_per_touch;
  (void)victim_pei_->execute(victim_vaddr(touch.location), victim_clock_);
}

double ReadMappingSpy::measure_probe(std::uint32_t bank) {
  const auto& ts = system_->timestamp();
  // Rotate the targeted block within the row (the §4.1 ignore-flag bypass)
  // so the PMU keeps the probe memory-side.
  const std::uint32_t col = attacker_pei_->next_bypass_column(
      system_config_.dram.row_bytes, 64);
  const util::Cycle t0 = ts.read(attacker_clock_);
  (void)attacker_pei_->execute(attacker_rows_[bank] + col, attacker_clock_);
  const util::Cycle t1 = ts.read_fast(attacker_clock_);
  double latency = static_cast<double>(t1 - t0);
  // §5.1 noise sources: measurement jitter plus occasional latency spikes
  // (interrupts, refresh collisions); both scale with the sweep footprint
  // (see SideChannelConfig::jitter_stddev).
  latency += rng_.normal(0.0, config_.jitter_stddev * jitter_scale_);
  if (rng_.chance(config_.spike_probability * jitter_scale_)) {
    latency += std::abs(rng_.normal(config_.spike_mean,
                                    config_.spike_mean / 2.0));
  }
  return latency;
}

void ReadMappingSpy::calibrate() {
  // The attacker self-calibrates in bank 0 with a scratch disturber row.
  const auto disturber =
      system_->vmem().map_row(kReceiver, 0, config_.attacker_row + 1);
  system_->warm_span(kReceiver, disturber);
  channel::ThresholdCalibrator cal;
  for (int i = 0; i < 48; ++i) {
    const std::uint32_t col = attacker_pei_->next_bypass_column(
        system_config_.dram.row_bytes, 64);
    (void)attacker_pei_->execute(attacker_rows_[0] + col, attacker_clock_);
    cal.add_low(measure_probe(0));  // Own row still open: the 0 cluster.
    (void)attacker_pei_->execute(disturber.vaddr + col, attacker_clock_);
    cal.add_high(measure_probe(0));  // Displaced row: the 1 cluster.
  }
  threshold_ = cal.threshold();
}

bool ReadMappingSpy::attacker_probe(std::uint32_t bank) {
  const double latency = measure_probe(bank);
  attacker_clock_ += config_.attacker_loop_cost;
  // Update this bank's bookkeeping record (timestamp + decision history)
  // through the attacker's own cache hierarchy: at small bank counts the
  // record array stays L1/L2-resident; a device-wide sweep pushes it into
  // the LLC and the per-probe cost grows accordingly.
  const sys::VAddr record =
      bookkeeping_span_.vaddr +
      static_cast<std::uint64_t>(bank) * config_.bookkeeping_bytes_per_bank;
  (void)system_->load(kReceiver, record, attacker_clock_);
  (void)system_->store(kReceiver, record + 64, attacker_clock_);
  return channel::decode_bit(latency, threshold_);
}

SideChannelResult ReadMappingSpy::run() {
  SideChannelResult result;

  // --- Record the victim's offload trace (pure algorithm). -------------
  victim_trace_.clear();
  touch_read_.clear();
  read_positions_.clear();
  genomics::ReferenceLayout layout{config_.banks, /*base_row=*/32,
                                   system_config_.dram.row_bytes,
                                   system_config_.dram.row_bytes * 4};
  std::uint32_t current_read = 0;
  genomics::ReadMapper mapper(
      *reference_, *table_, layout, config_.mapper,
      [this, &current_read](const genomics::MemoryTouch& t) {
        victim_trace_.push_back(t);
        touch_read_.push_back(current_read);
      });
  util::Xoshiro256 read_rng(config_.seed ^ 0xABCDEF12345678ull);
  const auto reads =
      genomics::sample_reads(*reference_, config_.reads, config_.readsim,
                             read_rng);
  std::size_t mapped_ok = 0;
  for (const auto& read : reads) {
    current_read = static_cast<std::uint32_t>(read_positions_.size());
    read_positions_.push_back(read.true_position);
    const auto m = mapper.map(read);
    const auto delta = static_cast<std::int64_t>(m.position) -
                       static_cast<std::int64_t>(read.true_position);
    if (m.mapped && std::llabs(delta) <= 5) ++mapped_ok;
  }
  // Reads shorter than one k-mer seed nothing, and the replay below needs
  // at least one touch.
  util::check(!victim_trace_.empty(),
              "ReadMappingSpy: the victim's reads touch no memory");
  result.victim_accuracy =
      static_cast<double>(mapped_ok) / static_cast<double>(reads.size());

  // --- Attacker setup + calibration. -----------------------------------
  // The probe array is one huge-page-backed row span covering row
  // `attacker_row` of every bank: thousands of banks fit in a handful of
  // 2 MiB TLB entries, so sweeps do not thrash the attacker's own TLB.
  const auto probe_span = system_->vmem().map_row_span(
      kReceiver, config_.attacker_row, /*huge=*/true);
  system_->warm_span(kReceiver, probe_span);
  attacker_rows_.resize(config_.banks);
  for (std::uint32_t b = 0; b < config_.banks; ++b) {
    attacker_rows_[b] =
        probe_span.vaddr + static_cast<std::uint64_t>(b) *
                               system_config_.dram.row_bytes;
  }
  const std::uint64_t book_bytes = static_cast<std::uint64_t>(config_.banks) *
                                   config_.bookkeeping_bytes_per_bank;
  bookkeeping_span_ = system_->vmem().map_pages(
      kReceiver, (book_bytes + 4095) / 4096);
  system_->warm_span(kReceiver, bookkeeping_span_);
  jitter_scale_ = std::sqrt(static_cast<double>(config_.banks) / 1024.0);
  calibrate();
  result.threshold = threshold_;

  // Initialization sweep: open the attacker's row in every bank.
  for (std::uint32_t b = 0; b < config_.banks; ++b) {
    (void)attacker_pei_->execute(attacker_rows_[b], attacker_clock_);
    attacker_clock_ += config_.attacker_loop_cost;
  }

  // --- Co-simulation: victim replays its trace, attacker sweeps. -------
  std::vector<Window> windows(config_.banks);
  std::size_t tv = 0;
  std::uint32_t pb = 0;
  victim_clock_ = attacker_clock_;  // Both start now.
  const util::Cycle start = attacker_clock_;

  auto note_victim_touch = [&](const genomics::MemoryTouch& t) {
    auto& w = windows[t.location.bank];
    w.any_disturbance = true;
    if (t.kind == genomics::MemoryTouch::Kind::kSeedProbe) {
      ++w.seed_touches;
      ++result.victim_seed_events;
    }
  };

  auto do_probe = [&](std::uint32_t bank) {
    const bool decision = attacker_probe(bank);
    auto& w = windows[bank];
    const bool truth = w.seed_touches > 0;
    ++result.probes.observations;
    if (decision == truth) ++result.probes.correct;
    if (decision && truth) ++result.captured_events;
    if (decision) {
      result.positives.push_back(BankObservation{bank, attacker_clock_});
    }
    w = Window{};
  };

  // Ground-truth read episodes (evaluation only): opened/closed as the
  // victim's trace replay crosses read boundaries.
  std::uint32_t truth_read = touch_read_.empty() ? 0 : touch_read_[0];
  util::Cycle truth_begin = victim_clock_;
  auto close_episode = [&](util::Cycle end) {
    result.episode_truths.push_back(EpisodeTruth{
        read_positions_[truth_read], truth_begin, end});
  };

  // Run to steady state: the victim replays its mapping workload
  // continuously (a long sequencing batch) until the attacker has swept
  // the whole device several times.
  const std::size_t target_probes = 6ull * config_.banks;
  util::Cycle victim_dummy_cycles = 0;
  util::Cycle victim_total_cycles = 0;
  while (result.probes.observations < target_probes) {
    if (victim_clock_ <= attacker_clock_) {
      if (touch_read_[tv] != truth_read) {
        close_episode(victim_clock_);
        // Unpipelined per-read tail work (see victim_alignment_compute).
        victim_clock_ += config_.victim_alignment_compute;
        truth_read = touch_read_[tv];
        truth_begin = victim_clock_;
      }
      const util::Cycle before = victim_clock_;
      note_victim_touch(victim_trace_[tv]);
      victim_step(tv);
      // Camouflage defense: bury the real probe in dummy probes to
      // uniformly random banks (same table row, random entry offset —
      // indistinguishable from real lookups to the attacker).
      const util::Cycle dummies_from = victim_clock_;
      for (std::uint32_t d = 0; d < config_.dummy_probes_per_touch; ++d) {
        genomics::TableLocation loc;
        loc.bank = static_cast<dram::BankId>(rng_.below(config_.banks));
        loc.row = config_.table.table_row;
        loc.col = static_cast<std::uint32_t>(
            rng_.below(table_->entries_per_bank()) *
            config_.table.entry_bytes);
        windows[loc.bank].any_disturbance = true;
        (void)victim_pei_->execute(victim_vaddr(loc), victim_clock_);
      }
      victim_dummy_cycles += victim_clock_ - dummies_from;
      victim_total_cycles += victim_clock_ - before;
      tv = (tv + 1) % victim_trace_.size();
    } else {
      do_probe(pb);
      pb = (pb + 1) % config_.banks;
    }
  }
  close_episode(victim_clock_);
  if (victim_total_cycles > victim_dummy_cycles) {
    result.victim_slowdown =
        static_cast<double>(victim_total_cycles) /
        static_cast<double>(victim_total_cycles - victim_dummy_cycles);
  }

  result.probes.elapsed_cycles = attacker_clock_ - start;
  result.precision = genomics::LeakPrecision::of(*table_);
  return result;
}

}  // namespace impact::attacks
