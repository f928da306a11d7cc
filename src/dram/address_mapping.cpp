#include "dram/address_mapping.hpp"

#include <bit>

namespace impact::dram {

AddressMapping::AddressMapping(const DramConfig& config, MappingScheme scheme)
    : scheme_(scheme),
      banks_(config.total_banks()),
      rows_(config.rows_per_bank),
      row_bytes_(config.row_bytes),
      capacity_(config.capacity_bytes()),
      pow2_(std::has_single_bit(banks_) && std::has_single_bit(rows_) &&
            std::has_single_bit(row_bytes_)) {
  config.validate();
  if (pow2_) {
    col_bits_ = static_cast<std::uint32_t>(std::countr_zero(row_bytes_));
    bank_bits_ = static_cast<std::uint32_t>(std::countr_zero(banks_));
    row_bits_ = static_cast<std::uint32_t>(std::countr_zero(rows_));
  }
}

DramAddress AddressMapping::decode_divide(PhysAddr addr) const {
  const auto col = static_cast<ColOffset>(addr % row_bytes_);
  const std::uint64_t chunk = addr / row_bytes_;
  DramAddress loc;
  loc.col = col;
  switch (scheme_) {
    case MappingScheme::kBankInterleaved: {
      loc.bank = static_cast<BankId>(chunk % banks_);
      loc.row = static_cast<RowId>(chunk / banks_);
      break;
    }
    case MappingScheme::kRowBankCol: {
      loc.row = static_cast<RowId>(chunk % rows_);
      loc.bank = static_cast<BankId>(chunk / rows_);
      break;
    }
    case MappingScheme::kXorBankHash: {
      const auto raw_bank = static_cast<BankId>(chunk % banks_);
      const auto row = static_cast<RowId>(chunk / banks_);
      loc.row = row;
      loc.bank = static_cast<BankId>((raw_bank ^ (row % banks_)) % banks_);
      break;
    }
  }
  return loc;
}

PhysAddr AddressMapping::encode(const DramAddress& loc) const {
  util::check(loc.bank < banks_, "AddressMapping::encode: bank out of range");
  util::check(loc.row < rows_, "AddressMapping::encode: row out of range");
  util::check(loc.col < row_bytes_, "AddressMapping::encode: col out of range");
  std::uint64_t chunk = 0;
  switch (scheme_) {
    case MappingScheme::kBankInterleaved:
      chunk = static_cast<std::uint64_t>(loc.row) * banks_ + loc.bank;
      break;
    case MappingScheme::kRowBankCol:
      chunk = static_cast<std::uint64_t>(loc.bank) * rows_ + loc.row;
      break;
    case MappingScheme::kXorBankHash: {
      const auto raw_bank =
          static_cast<BankId>((loc.bank ^ (loc.row % banks_)) % banks_);
      chunk = static_cast<std::uint64_t>(loc.row) * banks_ + raw_bank;
      break;
    }
  }
  return chunk * row_bytes_ + loc.col;
}

}  // namespace impact::dram
