// Memory-operation semantics: every load/store width, sign extension,
// addressing forms, group transfers, conditional stores, atomics, and the
// alignment faults.
#include <cstring>
#include <ostream>
#include <vector>

#include "src/sim/predecode.h"
#include "tests/exec_test_util.h"

namespace majc {
namespace {

// One bus access as the memory system sees it. In cycle mode the bus is
// EccMemory, whose fault stream depends on each access's width, so the
// (direction, address, width) sequence of every memory op is architectural
// for faulted runs even where the loaded values would not change.
struct BusAccess {
  bool write = false;
  Addr addr = 0;
  std::size_t bytes = 0;
  bool operator==(const BusAccess&) const = default;
};

std::ostream& operator<<(std::ostream& os, const BusAccess& a) {
  return os << (a.write ? "W" : "R") << "(0x" << std::hex << a.addr
            << std::dec << ", " << a.bytes << ")";
}

/// MemoryBus decorator that logs every access before forwarding it.
class RecordingBus final : public sim::MemoryBus {
public:
  explicit RecordingBus(sim::MemoryBus& inner) : inner_(inner) {}

  void read(Addr addr, std::span<u8> out) override {
    log.push_back({false, addr, out.size()});
    inner_.read(addr, out);
  }
  void write(Addr addr, std::span<const u8> in) override {
    log.push_back({true, addr, in.size()});
    inner_.write(addr, in);
  }

  std::vector<BusAccess> log;

private:
  sim::MemoryBus& inner_;
};

/// Execute the first packet of `src` once through sim::execute_packet with
/// g3 = 0x1000 (base), g4 = 0x20 (index), g5 = 0x11223344, g6 = 0x0BADF00D,
/// g10..g17 = 1..8 and the word at 0x1000 = 0x0BADF00D, and return the bus
/// accesses it made.
std::vector<BusAccess> accesses_of(const std::string& src) {
  const sim::Program prog(masm::assemble_or_throw(src));
  sim::FlatMemory flat(1u << 16);
  const u32 cell = 0x0BADF00D;
  std::memcpy(flat.raw().data() + 0x1000, &cell, 4);
  RecordingBus bus(flat);
  sim::CpuState st;
  st.regs[3] = 0x1000;
  st.regs[4] = 0x20;
  st.regs[5] = 0x11223344;
  st.regs[6] = cell;
  for (u32 i = 0; i < 8; ++i) st.regs[10 + i] = i + 1;
  st.pc = prog.meta(0).pc;
  sim::ExecEnv env{bus};
  sim::PacketScratch scratch;
  sim::execute_packet(st, prog.packet(0), prog.meta(0), env, scratch);
  return bus.log;
}

std::vector<BusAccess> words(bool write, Addr base) {
  std::vector<BusAccess> v;
  for (u32 i = 0; i < 8; ++i) v.push_back({write, base + 4 * i, 4});
  return v;
}

TEST(ExecMem, BusAccessSequenceIsPinnedPerOp) {
  using V = std::vector<BusAccess>;
  const V r1{{false, 0x1020, 1}}, r2{{false, 0x1020, 2}};
  const V r4{{false, 0x1020, 4}}, r8{{false, 0x1020, 8}};
  const V w1{{true, 0x1020, 1}}, w2{{true, 0x1020, 2}};
  const V w4{{true, 0x1020, 4}}, w8{{true, 0x1020, 8}};
  const struct {
    const char* src;
    V want;
  } cases[] = {
      {"ldb g10, g3, g4", r1},   {"ldbi g10, g3, 32", r1},
      {"ldbu g10, g3, g4", r1},  {"ldbui g10, g3, 32", r1},
      {"ldh g10, g3, g4", r2},   {"ldhi g10, g3, 32", r2},
      {"ldhu g10, g3, g4", r2},  {"ldhui g10, g3, 32", r2},
      {"ldw g10, g3, g4", r4},   {"ldwi g10, g3, 32", r4},
      {"ldl g10, g3, g4", r8},   {"ldli g10, g3, 32", r8},
      {"ldg g8, g3, g4", words(false, 0x1020)},
      {"ldgi g8, g3, 32", words(false, 0x1020)},
      {"stb g5, g3, g4", w1},    {"stbi g5, g3, 32", w1},
      {"sth g5, g3, g4", w2},    {"sthi g5, g3, 32", w2},
      {"stw g5, g3, g4", w4},    {"stwi g5, g3, 32", w4},
      {"stl g10, g3, g4", w8},   {"stli g10, g3, 32", w8},
      {"stg g8, g3, g4", words(true, 0x1020)},
      {"stgi g8, g3, 32", words(true, 0x1020)},
      {"stcw g5, g3, g4", {{true, 0x1000, 4}}},  // predicate true
      {"stcw g5, g3, g0", {}},                   // predicate false
      // cas: expected value matches, so it reads then writes the word.
      {"cas g5, g3, g6", {{false, 0x1000, 4}, {true, 0x1000, 4}}},
      // cas: mismatch reads only.
      {"cas g5, g3, g4", {{false, 0x1000, 4}}},
      {"swap g5, g3", {{false, 0x1000, 4}, {true, 0x1000, 4}}},
      {"pref g0, g3, g4", {}},   {"prefi g0, g3, 32", {}},
      {"membar", {}},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(accesses_of(c.src), c.want) << c.src;
  }
}

TEST(ExecMem, ByteAndHalfLoadsSignExtend) {
  ExecRun r(R"(
    .data
  v: .byte 0x80, 0x7F
    .align 2
  h: .half -2, 32767
    .code
    sethi g3, %hi(v)
    orlo g3, %lo(v)
    ldbi g10, g3, 0
    ldbui g11, g3, 0
    ldbi g12, g3, 1
    sethi g4, %hi(h)
    orlo g4, %lo(h)
    ldhi g13, g4, 0
    ldhui g14, g4, 0
    ldhi g15, g4, 2
    halt
  )");
  EXPECT_EQ(r.gs(10), -128);
  EXPECT_EQ(r.g(11), 0x80u);
  EXPECT_EQ(r.gs(12), 127);
  EXPECT_EQ(r.gs(13), -2);
  EXPECT_EQ(r.g(14), 0xFFFEu);
  EXPECT_EQ(r.gs(15), 32767);
}

TEST(ExecMem, StoreWidths) {
  ExecRun r(R"(
    .data
  buf: .space 16
    .code
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    setlo g4, -1
    stwi g4, g3, 0       # fill a word with ff
    setlo g5, 0x12
    stbi g5, g3, 1       # patch one byte
    sethi g6, 0xAABB
    orlo g6, 0xCCDD
    sthi g6, g3, 4       # halfword store keeps the low 16 bits
    ldwi g10, g3, 0
    ldwi g11, g3, 4
    halt
  )");
  EXPECT_EQ(r.g(10), 0xFFFF12FFu);
  EXPECT_EQ(r.g(11) & 0xFFFFu, 0xCCDDu);
}

TEST(ExecMem, RegPlusRegAddressing) {
  ExecRun r(R"(
    .data
  arr: .word 10, 20, 30, 40
    .code
    sethi g3, %hi(arr)
    orlo g3, %lo(arr)
    setlo g4, 8
    ldw g10, g3, g4
    setlo g5, 99
    stw g5, g3, g4
    ldw g11, g3, g4
    halt
  )");
  EXPECT_EQ(r.g(10), 30u);
  EXPECT_EQ(r.g(11), 99u);
}

TEST(ExecMem, GroupStoreRoundTrip) {
  ExecRun r(R"(
    .data
      .align 32
  src: .word 1, 2, 3, 4, 5, 6, 7, 8
  dst: .space 32
    .code
    sethi g3, %hi(src)
    orlo g3, %lo(src)
    ldgi g8, g3, 0
    sethi g4, %hi(dst)
    orlo g4, %lo(dst)
    stgi g8, g4, 0
    ldgi g16, g4, 0
    halt
  )");
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(r.g(16 + i), i + 1);
}

TEST(ExecMem, ConditionalStore) {
  ExecRun r(R"(
    .data
  a: .word 111
  b: .word 222
    .code
    sethi g3, %hi(a)
    orlo g3, %lo(a)
    sethi g4, %hi(b)
    orlo g4, %lo(b)
    setlo g5, 77
    setlo g6, 1
    stcw g5, g3, g6      # predicate true: stores
    stcw g5, g4, g0      # predicate false: no effect
    ldwi g10, g3, 0
    ldwi g11, g4, 0
    halt
  )");
  EXPECT_EQ(r.g(10), 77u);
  EXPECT_EQ(r.g(11), 222u);
}

TEST(ExecMem, AtomicsSingleCpuSemantics) {
  ExecRun r(R"(
    .data
  cell: .word 5
    .code
    sethi g3, %hi(cell)
    orlo g3, %lo(cell)
    setlo g4, 9
    swap g4, g3          # g4 <- 5, cell <- 9
    setlo g5, 42
    setlo g6, 9
    cas g5, g3, g6       # expect 9: succeeds; g5 <- 9, cell <- 42
    setlo g7, 100
    setlo g8, 9
    cas g7, g3, g8       # expect 9 but cell is 42: fails; g7 <- 42
    ldwi g10, g3, 0
    halt
  )");
  EXPECT_EQ(r.g(4), 5u);
  EXPECT_EQ(r.g(5), 9u);
  EXPECT_EQ(r.g(7), 42u);
  EXPECT_EQ(r.g(10), 42u);
}

TEST(ExecMem, CachedAttributesExecuteIdentically) {
  // Cache attributes are timing hints; values must not change.
  ExecRun r(R"(
    .data
  v: .word 1234
    .code
    sethi g3, %hi(v)
    orlo g3, %lo(v)
    ldw g10, g3, g0
    ldw.nc g11, g3, g0
    ldw.na g12, g3, g0
    halt
  )");
  EXPECT_EQ(r.g(10), 1234u);
  EXPECT_EQ(r.g(11), 1234u);
  EXPECT_EQ(r.g(12), 1234u);
}

TEST(ExecMem, MisalignedAccessFaults) {
  sim::FunctionalSim sim(masm::assemble_or_throw(R"(
    setlo g3, 4097
    ldwi g4, g3, 0
    halt
  )"));
  const sim::RunResult res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kTrap);
  EXPECT_EQ(res.trap.code, TrapCause::kMisaligned);
  // The trap is precise: pc names the faulting packet (second packet).
  EXPECT_EQ(res.trap.pc, sim.program().image().entry + isa::kInstrBytes);
}

TEST(ExecMem, OutOfBoundsFaults) {
  sim::FunctionalSim sim(masm::assemble_or_throw(R"(
    setlo g3, -4
    ldw g4, g3, g0
    halt
  )"));
  const sim::RunResult res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kTrap);
  EXPECT_EQ(res.trap.code, TrapCause::kOutOfBounds);
}

TEST(ExecMem, PrefetchHasNoArchitecturalEffect) {
  ExecRun r(R"(
    .data
  v: .word 55
    .code
    sethi g3, %hi(v)
    orlo g3, %lo(v)
    prefi g0, g3, 0
    pref g0, g3, g0
    ldwi g10, g3, 0
    halt
  )");
  EXPECT_EQ(r.g(10), 55u);
}

TEST(ExecMem, MembarIsANoOpForValues) {
  ExecRun r(R"(
    setlo g3, 7
    membar
    add g10, g3, g3
    halt
  )");
  EXPECT_EQ(r.g(10), 14u);
}

} // namespace
} // namespace majc
