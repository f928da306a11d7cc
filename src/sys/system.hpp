// System-level configuration (Table 2) and the MemorySystem façade.
//
// MemorySystem wires together the per-process CPU-side path
// (TLB -> L1 -> L2 -> LLC -> memory controller) and the direct paths that
// bypass the cache hierarchy (abstract direct access, DMA-engine access).
// PiM paths (PEI, RowClone) live in src/pim and use the same controller.
//
// Modeling note: each simulated process gets a private hierarchy (its
// L1/L2 plus an LLC slice). The attacks under study communicate through
// DRAM row-buffer state, not through shared cache sets, so private LLC
// slices preserve every mechanism the paper measures; the purely
// cache-resident comparison attack (Streamline) is modelled analytically,
// exactly as the paper itself does (§5.1).
//
// Private hierarchies also make a process's processor side independent of
// DRAM: TLB, cache and prefetcher state never reads the clock and prefetch
// fills are instant, so the hit/miss sequence of one process and the DRAM
// requests it emits (cache::Hierarchy::filter) are the same under every
// row policy and DRAM timing. The Fig. 11 grid relies on this: it filters
// each workload through the caches once and replays only DRAM per policy
// (graph::filter_instance / graph::replay_dram).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "cache/hierarchy.hpp"
#include "dram/controller.hpp"
#include "sys/sync.hpp"
#include "sys/timer.hpp"
#include "sys/tlb.hpp"
#include "sys/vmem.hpp"

namespace impact::fault {
class Injector;
}  // namespace impact::fault

namespace impact::sys {

struct DmaConfig {
  /// Descriptor setup, doorbell, and completion handling for one transfer.
  /// §5.1 assumes a powerful attacker who avoids context-switch and most
  /// OS costs; this is the irreducible user-space driver overhead left.
  util::Cycle per_transfer_overhead = 330;

  friend bool operator==(const DmaConfig&, const DmaConfig&) = default;
};

struct SystemConfig {
  double freq_ghz = 2.6;
  std::uint32_t cores = 4;
  dram::DramConfig dram{};
  dram::MappingScheme mapping = dram::MappingScheme::kBankInterleaved;
  std::uint64_t llc_bytes = 8ull * 1024 * 1024;  // 2 MiB/core x 4 cores.
  std::uint32_t llc_ways = 16;
  /// Uniform divisor applied to all cache capacities: a power of two
  /// (MemorySystem rejects anything else, 0 included). The Fig. 11
  /// reproduction scales hierarchy and input graph down together (the
  /// paper's inputs are 7-8 GB), preserving working-set-to-cache ratios
  /// and with them the per-workload MPKI regime.
  std::uint32_t cache_scale = 1;
  bool prefetchers = true;
  TlbConfig tlb{};
  TimerConfig timer{};
  DmaConfig dma{};
  std::uint64_t seed = 42;

  [[nodiscard]] util::Frequency frequency() const {
    return util::Frequency{freq_ghz};
  }

  /// Human-readable Table 2-style description for bench headers.
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const SystemConfig&, const SystemConfig&) = default;
};

/// Result of one access over any path.
struct PathResult {
  util::Cycle latency = 0;
  cache::HitLevel level = cache::HitLevel::kMemory;
  dram::RowBufferOutcome outcome = dram::RowBufferOutcome::kEmpty;
};

class MemorySystem {
 public:
  /// Throws std::invalid_argument when `config.cache_scale` is not a
  /// power of two.
  explicit MemorySystem(SystemConfig config);

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] dram::MemoryController& controller() { return controller_; }
  [[nodiscard]] VirtualMemory& vmem() { return vmem_; }
  [[nodiscard]] const Timestamp& timestamp() const { return timestamp_; }

  /// Per-process CPU-side structures (created on first use).
  cache::Hierarchy& hierarchy(dram::ActorId actor);
  Tlb& tlb(dram::ActorId actor);

  /// Attaches a fault injector to this system and its controller (nullptr
  /// detaches; non-owning — the injector must outlive the system or be
  /// detached first). DRAM-level faults fire inside the controller; actor-
  /// level faults (semaphore drop/delay, clock drift) are consulted by the
  /// channel drivers via fault_injector().
  void set_fault_injector(fault::Injector* injector) {
    faults_ = injector;
    controller_.set_fault_injector(injector);
  }
  [[nodiscard]] fault::Injector* fault_injector() { return faults_; }

  /// Mid-run protocol audit: reconciles every bank's BankStats against the
  /// command stream observed by the auto-attached protocol checker
  /// (IMPACT_CHECK). No-op when the checker is disabled. In abort mode a
  /// divergence terminates the process with a bank-level trace.
  void reconcile_protocol();

  /// TLB translation that consults the page size of the backing mapping
  /// (4 KiB vs 2 MiB pages). All access paths use this.
  TlbResult translate(dram::ActorId actor, VAddr vaddr);

  // --- CPU-side path (translate + cache hierarchy) --------------------
  PathResult load(dram::ActorId actor, VAddr vaddr, util::Cycle& clock,
                  std::uint64_t pc = 0);
  PathResult store(dram::ActorId actor, VAddr vaddr, util::Cycle& clock,
                   std::uint64_t pc = 0);

  /// clflush of the line holding `vaddr` (translate + LLC probe + WB).
  util::Cycle clflush(dram::ActorId actor, VAddr vaddr, util::Cycle& clock);
  /// Eviction-set displacement of the line holding `vaddr` (§3.3 baseline).
  util::Cycle evict(dram::ActorId actor, VAddr vaddr, util::Cycle& clock);

  // --- Cache-bypassing paths ------------------------------------------
  /// Abstract direct main-memory access: one request, no cache lookup
  /// (§3.3's "direct memory access attack" upper bound).
  PathResult direct_access(dram::ActorId actor, VAddr vaddr,
                           util::Cycle& clock);
  /// DMA-engine access: fixed driver overhead + uncached DRAM access.
  PathResult dma_access(dram::ActorId actor, VAddr vaddr,
                        util::Cycle& clock);

  /// Pre-warms translation structures for a span (§5.1 warm-up phase).
  void warm_span(dram::ActorId actor, const VSpan& span);

  /// DRAM traffic of a page-table walk: the walker fetches the leaf PTE
  /// from memory, activating a pseudo-random row. This is one of the §5.1
  /// noise sources — walker traffic perturbs row-buffer state that attacks
  /// rely on. Call with `walked` from a TlbResult.
  void charge_walk_traffic(dram::ActorId actor, VAddr vaddr, bool walked,
                           util::Cycle now);

 private:
  struct CpuContext {
    explicit CpuContext(const SystemConfig& cfg,
                        dram::MemoryController& controller,
                        dram::ActorId actor);
    Tlb tlb;
    cache::Hierarchy hierarchy;
  };

  CpuContext& context(dram::ActorId actor);

  SystemConfig config_;
  dram::MemoryController controller_;
  VirtualMemory vmem_;
  Timestamp timestamp_;
  std::unordered_map<dram::ActorId, std::unique_ptr<CpuContext>> contexts_;
  fault::Injector* faults_ = nullptr;
};

}  // namespace impact::sys
