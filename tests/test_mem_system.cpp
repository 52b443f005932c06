// Memory subsystem unit tests: cache tags/LRU/write-back, DRDRAM banking
// and bandwidth, crossbar arbitration, and LSU invariants.
#include <gtest/gtest.h>

#include "src/mem/memsys.h"
#include "src/support/rng.h"

namespace majc {
namespace {

using mem::Cache;

Cache::Config small_cache() {
  return {.bytes = 1024, .ways = 2, .line_bytes = 32, .name = "t"};
}

TEST(Cache, HitAfterFill) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x11F, false).hit);   // same line
  EXPECT_FALSE(c.access(0x120, false).hit);  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(small_cache());  // 16 sets, 2 ways; lines 0x000/0x200/0x400 share set 0
  c.access(0x000, false);
  c.access(0x200, false);
  c.access(0x000, false);          // touch: 0x200 becomes LRU
  c.access(0x400, false);          // evicts 0x200
  EXPECT_TRUE(c.probe(0x000));
  EXPECT_FALSE(c.probe(0x200));
  EXPECT_TRUE(c.probe(0x400));
}

TEST(Cache, DirtyVictimReportsWriteback) {
  Cache c(small_cache());
  c.access(0x000, /*is_store=*/true);
  c.access(0x200, false);
  const auto res = c.access(0x400, false);  // evicts dirty 0x000
  EXPECT_TRUE(res.writeback);
  EXPECT_EQ(res.victim_line, 0x000u);
  EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, InvalidateReturnsDirtiness) {
  Cache c(small_cache());
  c.access(0x40, true);
  EXPECT_TRUE(c.invalidate(0x40));
  EXPECT_FALSE(c.probe(0x40));
  c.access(0x40, false);
  EXPECT_FALSE(c.invalidate(0x40));
}

TEST(Cache, NonAllocatingMissLeavesTagsAlone) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x80, false, /*allocate=*/false).hit);
  EXPECT_FALSE(c.probe(0x80));
}

TEST(Cache, BadConfigRejected) {
  EXPECT_THROW(Cache({.bytes = 100, .ways = 3, .line_bytes = 32}), Error);
}

TEST(Cache, NonPowerOfTwoGeometryRejected) {
  // 3 KB, 2 ways, 32-byte lines: 48 sets.
  EXPECT_THROW(Cache({.bytes = 3072, .ways = 2, .line_bytes = 32}), Error);
  // 48-byte lines (32 sets).
  EXPECT_THROW(Cache({.bytes = 3072, .ways = 2, .line_bytes = 48}), Error);
  // A whole memory system with 48-byte lines; the cache sizes are
  // multiples of ways * 48 with power-of-two set counts, so only the
  // line size is at fault.
  TimingConfig cfg;
  cfg.line_bytes = 48;
  cfg.dcache_bytes = 48 * cfg.dcache_ways * 64;
  cfg.icache_bytes = 48 * cfg.icache_ways * 128;
  EXPECT_THROW(mem::MemorySystem{cfg}, Error);
}

TEST(Dram, PageHitsStreamAtChannelRate) {
  TimingConfig cfg;
  mem::Dram d(cfg);
  Cycle t = 0;
  // 64 sequential lines in one page after the first activation.
  for (u32 i = 0; i < 64; ++i) t = d.request(0x10000 + 32 * i, 32, 0);
  const double bpc = 64.0 * 32.0 / static_cast<double>(t);
  EXPECT_GT(bpc, 2.8);   // approaches 3.2 B/cycle = 1.6 GB/s
  EXPECT_LE(bpc, 3.3);
}

TEST(Dram, BankConflictsSerializeRowMisses) {
  TimingConfig cfg;
  mem::Dram a(cfg), b(cfg);
  // Alternating pages within one bank vs across two banks.
  Cycle t1 = 0, t2 = 0;
  for (u32 i = 0; i < 16; ++i) {
    t1 = a.request((i % 2) ? 0x20000 : 0x60000, 32, t1);  // same bank
    t2 = b.request((i % 2) ? 0x20000 : 0x20800, 32, t2);  // two banks
  }
  EXPECT_GT(t1, t2);
}

TEST(Crossbar, PortBandwidthBoundsTransfers) {
  TimingConfig cfg;
  mem::Crossbar x(cfg);
  // PCI at 0.528 B/cycle: 1 KB takes ~1939 cycles.
  const Cycle done = x.transfer(mem::Port::kPci, mem::Port::kMem, 1024, 0);
  EXPECT_NEAR(static_cast<double>(done), 1024 / 0.528, 64.0);
  // Independent ports overlap: a UPA transfer issued at 0 finishes long
  // before the PCI one.
  const Cycle upa = x.transfer(mem::Port::kNupa, mem::Port::kGpp, 1024, 0);
  EXPECT_LT(upa, done);
}

TEST(Crossbar, SharedPortSerializes) {
  TimingConfig cfg;
  mem::Crossbar x(cfg);
  const Cycle a = x.transfer(mem::Port::kCpu0, mem::Port::kMem, 4096, 0);
  const Cycle b = x.transfer(mem::Port::kCpu1, mem::Port::kMem, 4096, 0);
  EXPECT_GT(b, a);  // the kMem port is busy with the first transfer
}

TEST(Lsu, LoadBufferCapacityStalls) {
  TimingConfig cfg;
  mem::MemorySystem ms(cfg);
  auto& lsu = ms.lsu(0);
  sim::MemAccess acc{sim::MemAccess::Kind::kLoad, 0x100000, 4, 0};
  // Six loads to distinct lines: the sixth waits for a buffer slot
  // (5 load buffers, paper §3.2).
  Cycle issue5 = 0, issue6 = 0;
  for (u32 i = 0; i < 6; ++i) {
    acc.addr = 0x100000 + 0x800 * i;  // distinct banks, all miss
    const auto r = lsu.issue(acc, 0);
    if (i == 4) issue5 = r.issue_at;
    if (i == 5) issue6 = r.issue_at;
  }
  EXPECT_EQ(issue5, 0u);
  EXPECT_GT(issue6, 0u);
  EXPECT_GT(lsu.counters().get("load_buffer_stalls"), 0u);
}

TEST(Lsu, MshrMergeJoinsInFlightFill) {
  TimingConfig cfg;
  mem::MemorySystem ms(cfg);
  auto& lsu = ms.lsu(0);
  sim::MemAccess acc{sim::MemAccess::Kind::kLoad, 0x100000, 4, 0};
  const auto first = lsu.issue(acc, 0);
  acc.addr = 0x100004;  // same line
  const auto second = lsu.issue(acc, 1);
  EXPECT_EQ(lsu.counters().get("mshr_merges"), 1u);
  EXPECT_LE(second.data_ready, first.data_ready + cfg.load_to_use);
}

TEST(Lsu, StoreForwardingBeatsTheFill) {
  TimingConfig cfg;
  mem::MemorySystem ms(cfg);
  auto& lsu = ms.lsu(0);
  sim::MemAccess st{sim::MemAccess::Kind::kStore, 0x140000, 4, 0};
  lsu.issue(st, 0);
  sim::MemAccess ld{sim::MemAccess::Kind::kLoad, 0x140000, 4, 0};
  const auto r = lsu.issue(ld, 1);
  EXPECT_EQ(r.data_ready, 2u);
  EXPECT_EQ(lsu.counters().get("store_forwards"), 1u);
}

TEST(Lsu, DrainCoversOutstandingWork) {
  TimingConfig cfg;
  mem::MemorySystem ms(cfg);
  auto& lsu = ms.lsu(0);
  sim::MemAccess acc{sim::MemAccess::Kind::kLoad, 0x100000, 4, 0};
  const auto r = lsu.issue(acc, 0);
  EXPECT_GE(lsu.drain(1), r.data_ready);
  sim::MemAccess bar{sim::MemAccess::Kind::kMembar, 0, 0, 0};
  const auto b = lsu.issue(bar, 1);
  EXPECT_GE(b.issue_at, r.data_ready);
}

TEST(Lsu, PerfectModeAlwaysHits) {
  TimingConfig cfg;
  cfg.perfect_dcache = true;
  mem::MemorySystem ms(cfg);
  sim::MemAccess acc{sim::MemAccess::Kind::kLoad, 0x700000, 4, 0};
  const auto r = ms.lsu(0).issue(acc, 10);
  EXPECT_EQ(r.data_ready, 10 + cfg.load_to_use);
}

TEST(Lsu, NonCachedBypassesTags) {
  TimingConfig cfg;
  mem::MemorySystem ms(cfg);
  sim::MemAccess acc{sim::MemAccess::Kind::kLoad, 0x100000, 4, 1};  // .nc
  ms.lsu(0).issue(acc, 0);
  EXPECT_FALSE(ms.dcache().probe(0x100000));
}

TEST(MemSystem, IfetchMissesThenHits) {
  TimingConfig cfg;
  mem::MemorySystem ms(cfg);
  const Cycle cold = ms.ifetch(0, 0x1000, 16, 0);
  EXPECT_GT(cold, 0u);
  const Cycle warm = ms.ifetch(0, 0x1000, 16, cold);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(ms.icache(0).hits(), 1u);
}

TEST(MemSystem, IcachesArePerCpu) {
  TimingConfig cfg;
  mem::MemorySystem ms(cfg);
  ms.ifetch(0, 0x1000, 16, 0);
  EXPECT_EQ(ms.icache(1).hits() + ms.icache(1).misses(), 0u);
}

} // namespace
} // namespace majc
