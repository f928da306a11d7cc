// Unit tests: virtual memory — mapping policies, massaging, sharing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "dram/address_mapping.hpp"
#include "sys/vmem.hpp"
#include "util/rng.hpp"

namespace impact::sys {
namespace {

constexpr std::uint64_t kSeed = 5;

class VmemTest : public ::testing::Test {
 protected:
  VmemTest()
      : config_(),
        mapping_(config_, dram::MappingScheme::kBankInterleaved),
        vmem_(mapping_, kSeed) {}

  /// Physical frames behind `span`, in virtual-address order.
  std::vector<std::uint64_t> frames_of(dram::ActorId proc, const VSpan& span) {
    std::vector<std::uint64_t> frames;
    for (VAddr v = span.vaddr; v < span.end(); v += 4096) {
      frames.push_back(vmem_.translate(proc, v) >> 12);
    }
    return frames;
  }

  dram::DramConfig config_;
  dram::AddressMapping mapping_;
  VirtualMemory vmem_;
};

TEST_F(VmemTest, MapPagesTranslates) {
  const auto span = vmem_.map_pages(1, 4);
  EXPECT_EQ(span.bytes, 4 * 4096u);
  for (VAddr v = span.vaddr; v < span.end(); v += 4096) {
    EXPECT_TRUE(vmem_.is_mapped(1, v));
    EXPECT_LT(vmem_.translate(1, v), mapping_.capacity());
  }
  EXPECT_FALSE(vmem_.is_mapped(1, span.end()));
}

TEST_F(VmemTest, TranslatePreservesPageOffset) {
  const auto span = vmem_.map_pages(1, 1);
  const auto base = vmem_.translate(1, span.vaddr);
  EXPECT_EQ(vmem_.translate(1, span.vaddr + 123), base + 123);
}

TEST_F(VmemTest, DistinctProcessesGetDistinctFrames) {
  const auto a = vmem_.map_pages(1, 8);
  const auto b = vmem_.map_pages(2, 8);
  std::set<dram::PhysAddr> frames;
  for (VAddr v = a.vaddr; v < a.end(); v += 4096) {
    frames.insert(vmem_.translate(1, v) >> 12);
  }
  for (VAddr v = b.vaddr; v < b.end(); v += 4096) {
    EXPECT_FALSE(frames.contains(vmem_.translate(2, v) >> 12));
  }
}

TEST_F(VmemTest, UnknownTranslationThrows) {
  EXPECT_THROW((void)vmem_.translate(1, 0xdeadbeef), std::invalid_argument);
  const auto span = vmem_.map_pages(1, 1);
  EXPECT_THROW((void)vmem_.translate(2, span.vaddr), std::invalid_argument);
}

TEST_F(VmemTest, MapInBankLandsInBank) {
  for (dram::BankId bank : {0u, 7u, 63u}) {
    const auto span = vmem_.map_in_bank(3, bank);
    const auto lo = mapping_.decode(vmem_.translate(3, span.vaddr));
    const auto hi =
        mapping_.decode(vmem_.translate(3, span.vaddr + 4095));
    EXPECT_EQ(lo.bank, bank);
    EXPECT_EQ(hi.bank, bank);
  }
}

TEST_F(VmemTest, MapRowCoversExactRow) {
  const auto span = vmem_.map_row(1, 9, 33);
  EXPECT_EQ(span.bytes, config_.row_bytes);
  const auto lo = mapping_.decode(vmem_.translate(1, span.vaddr));
  const auto hi =
      mapping_.decode(vmem_.translate(1, span.end() - 1));
  EXPECT_EQ(lo.bank, 9u);
  EXPECT_EQ(lo.row, 33u);
  EXPECT_EQ(lo.col, 0u);
  EXPECT_EQ(hi.bank, 9u);
  EXPECT_EQ(hi.row, 33u);
  EXPECT_EQ(hi.col, config_.row_bytes - 1);
}

TEST_F(VmemTest, MapRowTwiceConflicts) {
  (void)vmem_.map_row(1, 9, 33);
  EXPECT_THROW((void)vmem_.map_row(2, 9, 33), std::invalid_argument);
}

TEST_F(VmemTest, MapRowSpanHitsEveryBankAtRow) {
  const auto span = vmem_.map_row_span(1, 5);
  EXPECT_EQ(span.bytes,
            static_cast<std::uint64_t>(config_.total_banks()) *
                config_.row_bytes);
  for (std::uint32_t b = 0; b < config_.total_banks(); ++b) {
    const auto loc = mapping_.decode(
        vmem_.translate(1, span.vaddr + b * config_.row_bytes));
    EXPECT_EQ(loc.bank, b);
    EXPECT_EQ(loc.row, 5u);
    EXPECT_EQ(loc.col, 0u);
  }
}

TEST_F(VmemTest, HugePagesAreFlagged) {
  const auto normal = vmem_.map_row_span(1, 6);
  const auto huge = vmem_.map_row_span(1, 7, /*huge=*/true);
  EXPECT_FALSE(vmem_.is_huge(1, normal.vaddr));
  EXPECT_TRUE(vmem_.is_huge(1, huge.vaddr));
  EXPECT_TRUE(vmem_.is_huge(1, huge.end() - 1));
  EXPECT_FALSE(vmem_.is_huge(1, huge.end()));
  EXPECT_FALSE(vmem_.is_huge(2, huge.vaddr));  // Per-process property.
}

TEST_F(VmemTest, ShareAliasesFrames) {
  const auto span = vmem_.map_pages(1, 2);
  vmem_.share(1, 2, span);
  for (VAddr v = span.vaddr; v < span.end(); v += 4096) {
    EXPECT_EQ(vmem_.translate(1, v), vmem_.translate(2, v));
  }
}

TEST_F(VmemTest, ShareRequiresMappedSpan) {
  const auto span = vmem_.map_pages(1, 1);
  const VSpan bogus{span.vaddr + 4096, 4096};
  EXPECT_THROW(vmem_.share(1, 2, bogus), std::invalid_argument);
  EXPECT_THROW(vmem_.share(1, 1, span), std::invalid_argument);
}

TEST_F(VmemTest, RandomAllocationsAvoidLowRows) {
  // Random handout draws from the upper half of the device, so attack rows
  // (low row numbers) stay claimable.
  const auto span = vmem_.map_pages(1, 64);
  for (VAddr v = span.vaddr; v < span.end(); v += 4096) {
    const auto loc = mapping_.decode(vmem_.translate(1, v));
    EXPECT_GE(loc.row, config_.rows_per_bank / 2 / config_.total_banks());
  }
  EXPECT_NO_THROW((void)vmem_.map_row(2, 0, 0));
}

TEST_F(VmemTest, FrameAccounting) {
  const auto used_before = vmem_.frames_used();
  (void)vmem_.map_pages(1, 10);
  EXPECT_EQ(vmem_.frames_used(), used_before + 10);
  EXPECT_EQ(vmem_.frames_total(), mapping_.capacity() / 4096);
}

// Independent oracle for the deferred pool: an eager backward Fisher-Yates
// over the upper half of the device (at most 2^20 frames), seeded as the
// VirtualMemory is. map_pages must hand out exactly this order, minus the
// frames that row mappings claimed first, however late the pool is built.
std::vector<std::uint64_t> naive_handout_order(std::uint64_t frames_total,
                                               std::uint64_t seed) {
  const std::uint64_t base = frames_total / 2;
  const std::uint64_t pool =
      std::min<std::uint64_t>(frames_total - base, 1ull << 20);
  std::vector<std::uint64_t> order(pool);
  for (std::uint64_t i = 0; i < pool; ++i) order[i] = base + i;
  util::Xoshiro256 rng(seed);
  for (std::uint64_t i = pool; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

TEST_F(VmemTest, MapPagesFollowsEagerShuffleOrder) {
  const auto order = naive_handout_order(vmem_.frames_total(), kSeed);
  std::vector<std::uint64_t> got;
  for (const auto& [proc, n] :
       {std::pair<dram::ActorId, std::uint64_t>{1, 100}, {2, 1}, {1, 400}}) {
    const auto frames = frames_of(proc, vmem_.map_pages(proc, n));
    got.insert(got.end(), frames.begin(), frames.end());
  }
  ASSERT_EQ(got.size(), 501u);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), order.begin()));
}

TEST(VmemSmallDevice, MapPagesFollowsEagerShuffleOrder) {
  // Pools of 1 to 64 frames: shorter than the shuffle's draw-ahead
  // window, equal to it and a few times longer. Once the pool is spent,
  // the low half is handed out in frame order.
  for (const std::uint32_t rows : {1u, 4u, 8u, 16u, 32u, 64u}) {
    dram::DramConfig config;
    config.ranks = 1;
    config.banks_per_rank = 1;
    config.rows_per_bank = rows;  // 2 frames per 8 KiB row.
    config.subarray_rows = rows;
    dram::AddressMapping mapping(config,
                                 dram::MappingScheme::kBankInterleaved);
    VirtualMemory vmem(mapping, kSeed + rows);
    const auto order = naive_handout_order(vmem.frames_total(), kSeed + rows);
    const auto span = vmem.map_pages(1, vmem.frames_total());
    for (std::uint64_t k = 0; k < vmem.frames_total(); ++k) {
      const std::uint64_t want =
          k < order.size() ? order[k] : k - order.size();
      EXPECT_EQ(vmem.translate(1, span.vaddr + k * 4096) >> 12, want)
          << rows << " rows, page " << k;
    }
  }
}

TEST_F(VmemTest, RowClaimsBeforeFirstMapPagesAreSkipped) {
  const auto order = naive_handout_order(vmem_.frames_total(), kSeed);
  // Claim the rows holding the 1st and a later frame of the handout order,
  // so the pool, built only at the first map_pages, must skip them.
  const auto first = mapping_.decode(order[0] << 12);
  std::set<std::uint64_t> claimed;
  for (const auto f : frames_of(3, vmem_.map_row(3, first.bank, first.row))) {
    claimed.insert(f);
  }
  const auto later = std::find_if(order.begin(), order.end(), [&](auto f) {
    return mapping_.decode(f << 12).row != first.row;
  });
  ASSERT_NE(later, order.end());
  const auto span_row = mapping_.decode(*later << 12).row;
  for (const auto f : frames_of(4, vmem_.map_row_span(4, span_row))) {
    claimed.insert(f);
  }
  ASSERT_EQ(claimed.size(), 2u + 64u * 2u);  // One row, then 64 banks' rows.

  std::vector<std::uint64_t> expected;
  for (const auto f : order) {
    if (!claimed.contains(f)) expected.push_back(f);
    if (expected.size() == 600) break;
  }
  EXPECT_EQ(frames_of(1, vmem_.map_pages(1, 600)), expected);
  EXPECT_EQ(vmem_.frames_used(), claimed.size() + 600);
}

TEST(VmemSmallDevice, ExhaustionThrows) {
  dram::DramConfig config;
  config.ranks = 1;
  config.banks_per_rank = 1;
  config.rows_per_bank = 2;  // 2 rows x 8 KiB = 4 frames.
  config.subarray_rows = 2;
  dram::AddressMapping mapping(config,
                               dram::MappingScheme::kBankInterleaved);
  VirtualMemory vmem(mapping, 1);
  (void)vmem.map_pages(1, 4);
  EXPECT_THROW((void)vmem.map_pages(1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace impact::sys
