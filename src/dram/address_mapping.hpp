// Physical address -> (bank, row, column) decoding schemes.
//
// The paper's attacks assume the commonly deployed *bank-interleaved*
// mapping: consecutive row-buffer-sized chunks of the physical address space
// map to consecutive banks, so a buffer spanning `total_banks * row_bytes`
// bytes touches every bank once (this is what lets a single masked RowClone
// address all banks, §4.2, and what stripes the read-mapping hash table
// across banks, §4.3). A row-bank-column scheme and a XOR-hashed variant
// (as in real controllers that XOR row bits into the bank index to spread
// conflicts) are provided for completeness and for the mapping-reversal
// tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dram/config.hpp"
#include "dram/types.hpp"
#include "util/assert.hpp"

namespace impact::dram {

enum class MappingScheme : std::uint8_t {
  kBankInterleaved,  ///< addr = ... row | bank | column (chunk-interleave).
  kRowBankCol,       ///< addr = ... bank | row | column (bank-sequential).
  kXorBankHash,      ///< Bank-interleaved with bank ^= low row bits.
};

[[nodiscard]] constexpr const char* to_string(MappingScheme s) {
  switch (s) {
    case MappingScheme::kBankInterleaved:
      return "bank-interleaved";
    case MappingScheme::kRowBankCol:
      return "row-bank-col";
    case MappingScheme::kXorBankHash:
      return "xor-bank-hash";
  }
  return "?";
}

/// Bijective decoder between physical addresses and DRAM coordinates.
class AddressMapping {
 public:
  AddressMapping(const DramConfig& config, MappingScheme scheme);

  [[nodiscard]] MappingScheme scheme() const { return scheme_; }

  /// Decodes a physical address. `addr` must lie inside the device.
  /// Every DRAM command decodes its address, so this is inline and, when
  /// banks, rows and row size are all powers of two (every shipped
  /// geometry), uses shifts and masks; the division path keeps other
  /// geometries correct.
  [[nodiscard]] DramAddress decode(PhysAddr addr) const {
    util::check(addr < capacity_,
                "AddressMapping::decode: address beyond device");
    return pow2_ ? decode_shift(addr) : decode_divide(addr);
  }

  /// Re-encodes coordinates into the unique physical address mapping there.
  [[nodiscard]] PhysAddr encode(const DramAddress& loc) const;

  /// First byte of the given row (column 0).
  [[nodiscard]] PhysAddr row_base(BankId bank, RowId row) const {
    return encode(DramAddress{bank, row, 0});
  }

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint32_t banks() const { return banks_; }
  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  [[nodiscard]] std::uint32_t row_bytes() const { return row_bytes_; }

 private:
  [[nodiscard]] DramAddress decode_shift(PhysAddr addr) const {
    const std::uint64_t chunk = addr >> col_bits_;
    DramAddress loc;
    loc.col = static_cast<ColOffset>(addr & (row_bytes_ - 1));
    switch (scheme_) {
      case MappingScheme::kBankInterleaved:
        loc.bank = static_cast<BankId>(chunk & (banks_ - 1));
        loc.row = static_cast<RowId>(chunk >> bank_bits_);
        break;
      case MappingScheme::kRowBankCol:
        loc.row = static_cast<RowId>(chunk & (rows_ - 1));
        loc.bank = static_cast<BankId>(chunk >> row_bits_);
        break;
      case MappingScheme::kXorBankHash:
        loc.row = static_cast<RowId>(chunk >> bank_bits_);
        loc.bank = static_cast<BankId>((chunk ^ loc.row) & (banks_ - 1));
        break;
    }
    return loc;
  }
  [[nodiscard]] DramAddress decode_divide(PhysAddr addr) const;

  MappingScheme scheme_;
  std::uint32_t banks_;
  std::uint32_t rows_;
  std::uint32_t row_bytes_;
  std::uint64_t capacity_;
  /// Set when banks, rows and row size are all powers of two; the bit
  /// counts below are then their log2.
  bool pow2_;
  std::uint32_t col_bits_ = 0;
  std::uint32_t bank_bits_ = 0;
  std::uint32_t row_bits_ = 0;
};

}  // namespace impact::dram
