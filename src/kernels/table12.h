// Canonical registry of the 16 Table 1 / Table 2 kernels.
//
// Every harness that sweeps "all the kernels" — majc_farm, the serving
// daemon, the host-throughput bench — used to carry its own copy of this
// list; one divergent entry would silently shrink a sweep. This is the
// single source of truth: the canonical sweep order (DSP Table 2 rows
// first, then the video Table 1 rows) and the canonical short names
// requests refer to.
#pragma once

#include <string_view>
#include <vector>

#include "src/kernels/kernel.h"

namespace majc::kernels {

struct NamedKernel {
  const char* name;
  KernelSpec (*make)();
};

/// The 16 kernels in canonical sweep order. The returned reference is to an
/// immutable eagerly-initialized table (safe to share across threads).
const std::vector<NamedKernel>& table12_kernels();

/// Build `nk`'s spec with its canonical sweep name applied (the factories
/// name specs with size tags like "fir_64tap"; sweeps and campaign JSON use
/// the short registry name).
KernelSpec table12_spec(const NamedKernel& nk);

/// Registry lookup by canonical name; nullptr when unknown.
const NamedKernel* find_table12_kernel(std::string_view name);

} // namespace majc::kernels
