// The bank-striped seed hash table shared by all read-mapping users.
//
// §4.3: "The read mapping tool constructs a hash table that contains
// information about the seed locations in the reference genome ... We
// assume the hash table is distributed across multiple DRAM banks"
// (interleaved bank mapping). §5.4 fixes the geometry we reproduce: with B
// banks, each bank holds one hash-table row with (total_buckets / B)
// entries — 16 entries/row at 1024 banks, 8 at 2048, and so on — so
// identifying the touched bank narrows the victim's bucket to
// total_buckets / B candidates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dram/types.hpp"
#include "genomics/genome.hpp"
#include "genomics/kmer.hpp"

namespace impact::genomics {

/// Where a table structure lives in DRAM.
struct TableLocation {
  dram::BankId bank = 0;
  dram::RowId row = 0;
  std::uint32_t col = 0;

  bool operator==(const TableLocation&) const = default;
};

struct SeedTableConfig {
  std::uint32_t buckets = 16384;      ///< Total buckets (fixed geometry).
  std::uint32_t entry_bytes = 512;    ///< One bucket's in-row footprint.
  std::uint32_t row_bytes = 8192;
  dram::RowId table_row = 20;         ///< The hash-table row in each bank.
  std::uint32_t max_positions = 64;   ///< Occupancy cap per bucket.
  MinimizerConfig minimizer{};
};

class SeedTable {
 public:
  /// `banks` is the DRAM bank count of the PiM device the table is striped
  /// over; buckets must fit the per-bank row (buckets/banks * entry_bytes
  /// <= row_bytes) and the minimizer config must validate(); otherwise
  /// throws std::invalid_argument.
  SeedTable(SeedTableConfig config, std::uint32_t banks);

  /// Indexes the reference: every reference minimizer lands in its bucket.
  void build(const Genome& reference);

  [[nodiscard]] std::uint32_t bucket_of(std::uint64_t minimizer_hash) const {
    return static_cast<std::uint32_t>(minimizer_hash % config_.buckets);
  }

  /// DRAM location of a bucket (the row a PiM-offloaded probe activates).
  [[nodiscard]] TableLocation locate(std::uint32_t bucket) const;

  /// Reference positions stored in the bucket of `minimizer_hash`.
  [[nodiscard]] std::span<const std::uint32_t> query(
      std::uint64_t minimizer_hash) const;

  /// Reference positions of a bucket by index (the attacker-side view:
  /// the table is a shared artifact, so candidate expansion from a leaked
  /// bank/bucket id is free).
  [[nodiscard]] std::span<const std::uint32_t> query_bucket(
      std::uint32_t bucket) const;

  [[nodiscard]] const SeedTableConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t banks() const { return banks_; }
  [[nodiscard]] std::uint32_t entries_per_bank() const {
    return config_.buckets / banks_;
  }
  [[nodiscard]] std::size_t total_positions() const;
  [[nodiscard]] double occupancy() const;  ///< Non-empty bucket fraction.

 private:
  SeedTableConfig config_;
  std::uint32_t banks_;
  std::vector<std::vector<std::uint32_t>> positions_;  // Per bucket.
};

/// Layout of the packed reference itself (used by the alignment stage's
/// candidate-region fetches): consecutive row-sized chunks interleave
/// across banks starting at `base_row`.
struct ReferenceLayout {
  std::uint32_t banks = 0;
  dram::RowId base_row = 32;
  std::uint32_t row_bytes = 8192;
  std::uint32_t bases_per_row = 8192 * 4;  ///< 2-bit packed.

  [[nodiscard]] TableLocation locate(std::size_t ref_position) const {
    const std::size_t chunk = ref_position / bases_per_row;
    TableLocation loc;
    loc.bank = static_cast<dram::BankId>(chunk % banks);
    loc.row = base_row + static_cast<dram::RowId>(chunk / banks);
    loc.col = static_cast<std::uint32_t>((ref_position % bases_per_row) / 4);
    return loc;
  }
};

}  // namespace impact::genomics
