// External interface models: North/South UPA, PCI, and the NUPA input FIFO.
//
// Fig. 1 of the paper: the chip exposes a 64-bit/250 MHz North UPA (with a
// 4 KB input FIFO that both CPUs can read), a 64-bit/250 MHz South UPA, and
// a 32-bit/66 MHz PCI interface, all meeting the CPUs and the DRDRAM
// controller at the central crossbar. Peak rates: 2.0 GB/s per UPA port,
// 264 MB/s PCI, 1.6 GB/s DRDRAM — aggregate I/O > 4.8 GB/s.
//
// The port model carries real bytes (so device-driven data lands in
// simulated memory) and accounts time through the crossbar and DRAM models,
// which is what the Fig. 1 bandwidth benchmark measures.
#pragma once

#include <deque>

#include "src/mem/memsys.h"
#include "src/sim/memory.h"

namespace majc::soc {

/// Bounded byte FIFO with timing: the NUPA input buffer (4 KB).
class Fifo {
public:
  explicit Fifo(u32 capacity) : capacity_(capacity) {}

  u32 capacity() const { return capacity_; }
  u32 occupancy() const { return static_cast<u32>(bytes_.size()); }
  bool can_push(u32 n) const { return occupancy() + n <= capacity_; }

  void push(std::span<const u8> data);
  /// Pop up to `n` bytes into `out`; returns bytes actually popped.
  u32 pop(std::span<u8> out);

  u64 total_pushed() const { return pushed_; }

  void fields(ckpt::Archive& a);

private:
  u32 capacity_;
  std::deque<u8> bytes_;
  u64 pushed_ = 0;
};

/// A DMA-capable external port attached to one crossbar port.
class IoPort {
public:
  IoPort(mem::MemorySystem& ms, sim::MemoryBus& mem, mem::Port port)
      : ms_(ms), mem_(mem), port_(port) {}

  /// Stream `data` from the external device into memory at `dst`;
  /// returns the completion cycle. Cache lines covering the destination are
  /// invalidated (device writes go under the cache).
  Cycle dma_in(Addr dst, std::span<const u8> data, Cycle now);

  /// Stream `bytes` from memory at `src` out of the chip; returns the
  /// completion cycle and fills `out` if non-empty.
  Cycle dma_out(Addr src, std::span<u8> out, Cycle now);

  /// Bandwidth accounting only: move `bytes` through the port to/from
  /// memory without data (used for saturation benchmarks).
  Cycle stream(u32 bytes, bool inbound, Cycle now);

  mem::Port port() const { return port_; }
  u64 bytes_in() const { return bytes_in_; }
  u64 bytes_out() const { return bytes_out_; }

  void fields(ckpt::Archive& a);

private:
  Cycle move(Addr mem_addr, u32 bytes, bool inbound, Cycle now);

  mem::MemorySystem& ms_;
  sim::MemoryBus& mem_;
  mem::Port port_;
  u64 bytes_in_ = 0;
  u64 bytes_out_ = 0;
};

/// The North UPA port: an IoPort plus the 4 KB input FIFO that the CPUs
/// (and the GPP) consume from.
class NupaPort : public IoPort {
public:
  NupaPort(mem::MemorySystem& ms, sim::MemoryBus& mem)
      : IoPort(ms, mem, mem::Port::kNupa),
        fifo_(ms.config().nupa_fifo_bytes),
        line_rate_(ms.config().upa_bytes_per_cycle) {}

  Fifo& fifo() { return fifo_; }
  const Fifo& fifo() const { return fifo_; }

  /// External producer pushes into the FIFO; returns the cycle the last
  /// byte is accepted (backpressure when full is the caller's concern via
  /// can_push()).
  Cycle push_fifo(std::span<const u8> data, Cycle now);

private:
  Fifo fifo_;
  double line_rate_;
};

} // namespace majc::soc
