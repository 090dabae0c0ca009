// Runtime-dispatched gear boundary scan kernels (the chunking hot loop).
//
// Every kernel implements the same contract over a half-open byte region:
// starting from rolling hash `h`, fold bytes data[pos..end) one at a time
// with  h = (h << 1) + table[b]  and return the first boundary — the index
// ONE PAST the byte whose fold made (h & mask) == 0 — leaving `h` at the
// post-hit value. When no byte hits, the kernel returns kNoBoundary with
// `h` folded across the whole region. Kernels are BIT-IDENTICAL to
// gear_scan_scalar() at any region length, alignment and mask (the wrapping
// mod-2^64 adds of the gear recurrence are associative, so block
// reformulations are exact); the differential tests and the fuzz_chunker
// oracle enforce this, which is what makes the ISA level a pure performance
// knob.
//
// Two kernels exist: the scalar loop and an AVX-512 gather+prefix kernel.
// The exact gear recurrence is bound by its per-byte table load on every x86
// formulation tried (DESIGN.md §4.2): SSE4.1 and AVX2 block kernels measured
// at 0.55–0.8× scalar, so those levels run the scalar loop; only the AVX-512
// kernel measured ahead (~1.1–1.3×). The large SIMD win in this substrate is multi-buffer
// fingerprinting (common/sha_mb.h).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.h"

namespace defrag::simd {

/// Returned when no byte in the region produced a boundary.
inline constexpr std::size_t kNoBoundary = static_cast<std::size_t>(-1);

/// One scan kernel. `table` is the 256-entry gear table
/// (GearChunker::table().data()).
using GearScanFn = std::size_t (*)(const std::uint8_t* data, std::size_t pos,
                                   std::size_t end, std::uint64_t mask,
                                   std::uint64_t& h,
                                   const std::uint64_t* table);

/// The portable reference kernel — byte-for-byte the loop the chunker
/// shipped with before dispatch existed.
std::size_t gear_scan_scalar(const std::uint8_t* data, std::size_t pos,
                             std::size_t end, std::uint64_t mask,
                             std::uint64_t& h, const std::uint64_t* table);

/// The kernel for `level`: the AVX-512 kernel at kAvx512 (x86 builds), the
/// scalar loop at every lower level. Differential tests and benches sweep
/// levels through it.
GearScanFn gear_scan_for(cpu::IsaLevel level);

/// gear_scan_for(cpu::active_isa_level()). Also publishes the
/// `system.cpu.isa_level` gauge on first call.
GearScanFn active_gear_scan();

/// Account bytes scanned through a non-scalar kernel into the
/// `chunking.simd_bytes` counter. Callers accumulate per split and report
/// once; the counter itself is a relaxed atomic.
void add_simd_bytes(std::uint64_t bytes);

}  // namespace defrag::simd
