#include "src/sim/memory.h"

#include <cstring>
#include <string>

#include "src/support/trap.h"

namespace majc::sim {
namespace {

void check_align(Addr a, std::size_t n) {
  if (n > 1 && (a % n) != 0) {
    raise_trap(TrapCause::kMisaligned,
               "misaligned " + std::to_string(n) +
                   "-byte access at address " + std::to_string(a));
  }
}

// Every typed helper: one alignment check, then one access of the full
// width through the virtual read/write (little-endian, like the host).
template <class W>
W load(MemoryBus& mem, Addr a) {
  check_align(a, sizeof(W));
  u8 b[sizeof(W)];
  mem.read(a, b);
  W v;
  std::memcpy(&v, b, sizeof v);
  return v;
}

template <class W>
void store(MemoryBus& mem, Addr a, W v) {
  check_align(a, sizeof(W));
  u8 b[sizeof(W)];
  std::memcpy(b, &v, sizeof v);
  mem.write(a, b);
}

} // namespace

u8 MemoryBus::read_u8(Addr a) { return load<u8>(*this, a); }
u16 MemoryBus::read_u16(Addr a) { return load<u16>(*this, a); }
u32 MemoryBus::read_u32(Addr a) { return load<u32>(*this, a); }
u64 MemoryBus::read_u64(Addr a) { return load<u64>(*this, a); }
void MemoryBus::write_u8(Addr a, u8 v) { store(*this, a, v); }
void MemoryBus::write_u16(Addr a, u16 v) { store(*this, a, v); }
void MemoryBus::write_u32(Addr a, u32 v) { store(*this, a, v); }
void MemoryBus::write_u64(Addr a, u64 v) { store(*this, a, v); }

void FlatMemory::read(Addr addr, std::span<u8> out) {
  if (addr + out.size() > bytes_.size()) {
    raise_trap(TrapCause::kOutOfBounds,
               "memory read out of bounds at address " + std::to_string(addr));
  }
  std::memcpy(out.data(), bytes_.data() + addr, out.size());
}

void FlatMemory::write(Addr addr, std::span<const u8> in) {
  if (addr + in.size() > bytes_.size()) {
    raise_trap(TrapCause::kOutOfBounds,
               "memory write out of bounds at address " + std::to_string(addr));
  }
  std::memcpy(bytes_.data() + addr, in.data(), in.size());
}

} // namespace majc::sim
