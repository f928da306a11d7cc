#include "genomics/seed_table.hpp"

#include "util/assert.hpp"

namespace impact::genomics {

SeedTable::SeedTable(SeedTableConfig config, std::uint32_t banks)
    : config_(config), banks_(banks) {
  util::check(banks_ > 0, "SeedTable: needs at least one bank");
  config_.minimizer.validate();
  util::check(config_.buckets % banks_ == 0,
              "SeedTable: buckets must be divisible by the bank count");
  util::check(entries_per_bank() * config_.entry_bytes <= config_.row_bytes,
              "SeedTable: per-bank buckets must fit one row");
  positions_.resize(config_.buckets);
}

void SeedTable::build(const Genome& reference) {
  const auto minimizers =
      extract_minimizers(reference.bases(), config_.minimizer);
  for (const auto& m : minimizers) {
    auto& bucket = positions_[bucket_of(m.hash)];
    if (bucket.size() < config_.max_positions) {
      bucket.push_back(m.position);
    }
  }
}

TableLocation SeedTable::locate(std::uint32_t bucket) const {
  util::check(bucket < config_.buckets, "SeedTable::locate: bad bucket");
  TableLocation loc;
  loc.bank = static_cast<dram::BankId>(bucket % banks_);
  loc.row = config_.table_row;
  loc.col = (bucket / banks_) * config_.entry_bytes;
  return loc;
}

std::span<const std::uint32_t> SeedTable::query(
    std::uint64_t minimizer_hash) const {
  return positions_[bucket_of(minimizer_hash)];
}

std::span<const std::uint32_t> SeedTable::query_bucket(
    std::uint32_t bucket) const {
  util::check(bucket < config_.buckets, "query_bucket: bad bucket");
  return positions_[bucket];
}

std::size_t SeedTable::total_positions() const {
  std::size_t n = 0;
  for (const auto& b : positions_) n += b.size();
  return n;
}

double SeedTable::occupancy() const {
  std::size_t non_empty = 0;
  for (const auto& b : positions_) non_empty += b.empty() ? 0 : 1;
  return static_cast<double>(non_empty) /
         static_cast<double>(positions_.size());
}

}  // namespace impact::genomics
