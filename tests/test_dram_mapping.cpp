// Property tests: address-mapping bijectivity across schemes x geometries.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "dram/address_mapping.hpp"
#include "util/rng.hpp"

namespace impact::dram {
namespace {

DramConfig make_config(std::uint32_t ranks, std::uint32_t banks_per_rank,
                       std::uint32_t rows, std::uint32_t row_bytes) {
  DramConfig c;
  c.ranks = ranks;
  c.banks_per_rank = banks_per_rank;
  c.rows_per_bank = rows;
  c.row_bytes = row_bytes;
  c.subarray_rows = rows >= 512 ? 512 : rows;
  return c;
}

using MappingParam = std::tuple<MappingScheme, std::uint32_t, std::uint32_t>;

class MappingProperty : public ::testing::TestWithParam<MappingParam> {};

TEST_P(MappingProperty, DecodeEncodeRoundTripsRandomAddresses) {
  const auto [scheme, ranks, banks] = GetParam();
  const auto config = make_config(ranks, banks, 1024, 8192);
  AddressMapping mapping(config, scheme);
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 5000; ++i) {
    const PhysAddr addr = rng.below(mapping.capacity());
    const auto loc = mapping.decode(addr);
    EXPECT_LT(loc.bank, mapping.banks());
    EXPECT_LT(loc.row, mapping.rows());
    EXPECT_LT(loc.col, mapping.row_bytes());
    EXPECT_EQ(mapping.encode(loc), addr);
  }
}

TEST_P(MappingProperty, EncodeDecodeRoundTripsRandomCoordinates) {
  const auto [scheme, ranks, banks] = GetParam();
  const auto config = make_config(ranks, banks, 1024, 8192);
  AddressMapping mapping(config, scheme);
  util::Xoshiro256 rng(100);
  for (int i = 0; i < 5000; ++i) {
    DramAddress loc;
    loc.bank = static_cast<BankId>(rng.below(mapping.banks()));
    loc.row = static_cast<RowId>(rng.below(mapping.rows()));
    loc.col = static_cast<ColOffset>(rng.below(mapping.row_bytes()));
    const PhysAddr addr = mapping.encode(loc);
    EXPECT_LT(addr, mapping.capacity());
    EXPECT_EQ(mapping.decode(addr), loc);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndGeometries, MappingProperty,
    ::testing::Combine(
        ::testing::Values(MappingScheme::kBankInterleaved,
                          MappingScheme::kRowBankCol,
                          MappingScheme::kXorBankHash),
        ::testing::Values(1u, 4u),
        ::testing::Values(8u, 16u)),
    [](const ::testing::TestParamInfo<MappingParam>& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_r" + std::to_string(std::get<1>(info.param)) + "_b" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Mapping, BankInterleavedStripesRowChunksAcrossBanks) {
  const auto config = make_config(1, 16, 1024, 8192);
  AddressMapping mapping(config, MappingScheme::kBankInterleaved);
  for (std::uint32_t k = 0; k < 32; ++k) {
    const auto loc = mapping.decode(static_cast<PhysAddr>(k) * 8192);
    EXPECT_EQ(loc.bank, k % 16);
    EXPECT_EQ(loc.row, k / 16);
    EXPECT_EQ(loc.col, 0u);
  }
}

TEST(Mapping, RowBankColKeepsBankContiguous) {
  const auto config = make_config(1, 16, 1024, 8192);
  AddressMapping mapping(config, MappingScheme::kRowBankCol);
  // The first bank_bytes addresses all land in bank 0.
  const auto lo = mapping.decode(0);
  const auto hi = mapping.decode(config.bank_bytes() - 1);
  EXPECT_EQ(lo.bank, 0u);
  EXPECT_EQ(hi.bank, 0u);
  EXPECT_EQ(mapping.decode(config.bank_bytes()).bank, 1u);
}

TEST(Mapping, XorHashSpreadsCongruentLinesOverBanks) {
  // The property DRAMA-eviction relies on: lines congruent modulo a large
  // power of two do NOT alias into one bank.
  const auto config = make_config(4, 16, 65536, 8192);
  AddressMapping mapping(config, MappingScheme::kXorBankHash);
  const PhysAddr base = 12345 * 64;
  std::set<BankId> coarse;
  std::set<BankId> fine;
  for (std::uint64_t k = 0; k < 16; ++k) {
    coarse.insert(mapping.decode(base + k * (8ull << 20)).bank);
    fine.insert(mapping.decode(base + k * (512ull << 10)).bank);
  }
  EXPECT_GE(coarse.size(), 4u);   // Row += 16 per 8 MiB stride.
  EXPECT_EQ(fine.size(), 16u);    // Row += 1 per 512 KiB stride.
  // Under pure bank interleaving both strides alias into one bank.
  AddressMapping plain(config, MappingScheme::kBankInterleaved);
  std::set<BankId> aliased;
  for (std::uint64_t k = 0; k < 16; ++k) {
    aliased.insert(plain.decode(base + k * (512ull << 10)).bank);
  }
  EXPECT_EQ(aliased.size(), 1u);
}

TEST(Mapping, RowBaseIsColumnZero) {
  const auto config = make_config(4, 16, 1024, 8192);
  AddressMapping mapping(config, MappingScheme::kBankInterleaved);
  const auto loc = mapping.decode(mapping.row_base(7, 13));
  EXPECT_EQ(loc.bank, 7u);
  EXPECT_EQ(loc.row, 13u);
  EXPECT_EQ(loc.col, 0u);
}

TEST(Mapping, RejectsOutOfRange) {
  const auto config = make_config(1, 8, 64, 8192);
  AddressMapping mapping(config, MappingScheme::kBankInterleaved);
  EXPECT_THROW((void)mapping.decode(mapping.capacity()),
               std::invalid_argument);
  EXPECT_THROW((void)mapping.encode(DramAddress{8, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW((void)mapping.encode(DramAddress{0, 64, 0}),
               std::invalid_argument);
  EXPECT_THROW((void)mapping.encode(DramAddress{0, 0, 8192}),
               std::invalid_argument);
}

// Independent oracle for decode: the naive `%` and `/` formulas of
// DESIGN.md §3 ("Address mapping"), with no shift fast path. decode must
// agree with it on power-of-two geometries (its shift-and-mask path) and
// on the rest (its division fallback).
DramAddress naive_decode(MappingScheme scheme, std::uint64_t banks,
                         std::uint64_t rows, std::uint64_t row_bytes,
                         PhysAddr addr) {
  const std::uint64_t chunk = addr / row_bytes;
  DramAddress loc;
  loc.col = static_cast<ColOffset>(addr % row_bytes);
  switch (scheme) {
    case MappingScheme::kBankInterleaved:
      loc.bank = static_cast<BankId>(chunk % banks);
      loc.row = static_cast<RowId>(chunk / banks);
      break;
    case MappingScheme::kRowBankCol:
      loc.row = static_cast<RowId>(chunk % rows);
      loc.bank = static_cast<BankId>(chunk / rows);
      break;
    case MappingScheme::kXorBankHash:
      loc.row = static_cast<RowId>(chunk / banks);
      loc.bank = static_cast<BankId>(((chunk % banks) ^ (loc.row % banks)) %
                                     banks);
      break;
  }
  return loc;
}

struct Geometry {
  std::uint32_t ranks;
  std::uint32_t banks_per_rank;
  std::uint32_t rows;
};

TEST(MappingOracle, DecodeMatchesNaiveFormulas) {
  const Geometry geometries[] = {
      {1, 64, 32768},   // The default device: 64 banks, all powers of two.
      {128, 64, 1024},  // 8192 banks, the largest Fig. 10 device.
      {3, 8, 1024},     // 24 banks: the division fallback ...
      {1, 16, 1536},    // ... and 1536 rows: the fallback again.
  };
  for (const auto& g : geometries) {
    const auto config = make_config(g.ranks, g.banks_per_rank, g.rows, 8192);
    for (const auto scheme :
         {MappingScheme::kBankInterleaved, MappingScheme::kRowBankCol,
          MappingScheme::kXorBankHash}) {
      SCOPED_TRACE(std::string(to_string(scheme)) + " with " +
                   std::to_string(config.total_banks()) + " banks");
      AddressMapping mapping(config, scheme);
      ASSERT_EQ(mapping.capacity(), std::uint64_t{config.total_banks()} *
                                        g.rows * config.row_bytes);
      util::Xoshiro256 rng(2024);
      for (int i = 0; i < 20000; ++i) {
        // Every fourth address sits at a chunk edge, where an off-by-one
        // in the shifts would show first.
        PhysAddr addr = rng.below(mapping.capacity());
        if (i % 4 == 0) addr -= addr % config.row_bytes;
        if (i % 8 == 0 && addr >= 1) addr -= 1;
        ASSERT_EQ(mapping.decode(addr),
                  naive_decode(scheme, config.total_banks(), g.rows,
                               config.row_bytes, addr))
            << "addr " << addr;
      }
      const PhysAddr last = mapping.capacity() - 1;
      EXPECT_EQ(mapping.decode(last),
                naive_decode(scheme, config.total_banks(), g.rows,
                             config.row_bytes, last));
      EXPECT_THROW((void)mapping.decode(mapping.capacity()),
                   std::invalid_argument);
    }
  }
}

TEST(DramConfigTest, ValidationRejectsBadGeometry) {
  DramConfig c;
  c.subarray_rows = 500;  // Does not divide rows_per_bank.
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = DramConfig{};
  c.row_bytes = 1000;  // Not a power of two.
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = DramConfig{};
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(c.total_banks(), 64u);
  EXPECT_EQ(c.capacity_bytes(),
            64ull * c.rows_per_bank * c.row_bytes);
}

}  // namespace
}  // namespace impact::dram
