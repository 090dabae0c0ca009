#include "chunking/gear_simd.h"

#include <cstring>

#include "common/cpu.h"
#include "obs/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#define DEFRAG_SIMD_X86 1
#include <immintrin.h>
#endif

namespace defrag::simd {

namespace {

using std::size_t;
using std::uint64_t;
using std::uint8_t;

/// Fold 16 bytes into the chain `x`, writing the 16 successive hash values
/// to hb[0..15]. Pairing two bytes per step keeps the serial dependency at
/// one LEA per two bytes: with g0, g1 the two table values,
///   h_odd  = 2x + g0
///   h_even = 4x + 2 g0 + g1
/// which equals two single-byte folds because the mod-2^64 adds wrap
/// associatively. Plain scalar code on purpose: the chain is the part SIMD
/// cannot help with (it is load- and latency-bound), the vector units only
/// test the results.
inline void chain16(const uint8_t* p, const uint64_t* g, uint64_t& x,
                    uint64_t* hb) {
  for (int w = 0; w < 2; ++w) {
    uint64_t word;
    std::memcpy(&word, p + 8 * w, 8);
    for (int k = 0; k < 4; ++k) {
      const uint64_t g0 = g[word & 0xff];
      const uint64_t g1 = g[(word >> 8) & 0xff];
      word >>= 16;
      const int j = 8 * w + 2 * k;
      hb[j] = x * 2 + g0;
      x = x * 4 + (g0 * 2 + g1);
      hb[j + 1] = x;
    }
  }
}

/// First index j in hb[0..n) with (hb[j] & mask) == 0, or n.
inline size_t first_hit(const uint64_t* hb, size_t n, uint64_t mask) {
  for (size_t j = 0; j < n; ++j) {
    if ((hb[j] & mask) == 0) return j;
  }
  return n;
}

#if DEFRAG_SIMD_X86

__attribute__((target("sse4.1"))) size_t gear_scan_sse41(
    const uint8_t* data, size_t pos, size_t end, uint64_t mask, uint64_t& h,
    const uint64_t* table) {
  uint64_t x = h;
  const __m128i vmask = _mm_set1_epi64x(static_cast<long long>(mask));
  const __m128i zero = _mm_setzero_si128();
  alignas(16) uint64_t hb[16];
  while (pos + 16 <= end) {
    chain16(data + pos, table, x, hb);
    __m128i any = zero;
    for (int v = 0; v < 8; ++v) {
      const __m128i t =
          _mm_load_si128(reinterpret_cast<const __m128i*>(hb) + v);
      any = _mm_or_si128(any, _mm_cmpeq_epi64(_mm_and_si128(t, vmask), zero));
    }
    if (_mm_movemask_epi8(any) != 0) {
      const size_t j = first_hit(hb, 16, mask);
      h = hb[j];
      return pos + j + 1;
    }
    pos += 16;
  }
  h = x;
  return gear_scan_scalar(data, pos, end, mask, h, table);
}

__attribute__((target("avx2"))) size_t gear_scan_avx2(
    const uint8_t* data, size_t pos, size_t end, uint64_t mask, uint64_t& h,
    const uint64_t* table) {
  uint64_t x = h;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i zero = _mm256_setzero_si256();
  alignas(32) uint64_t hb[16];
  while (pos + 16 <= end) {
    chain16(data + pos, table, x, hb);
    __m256i any = zero;
    for (int v = 0; v < 4; ++v) {
      const __m256i t =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(hb) + v);
      any = _mm256_or_si256(any,
                            _mm256_cmpeq_epi64(_mm256_and_si256(t, vmask),
                                               zero));
    }
    if (_mm256_movemask_epi8(any) != 0) {
      const size_t j = first_hit(hb, 16, mask);
      h = hb[j];
      return pos + j + 1;
    }
    pos += 16;
  }
  h = x;
  return gear_scan_scalar(data, pos, end, mask, h, table);
}

// GCC 12's avx512fintrin.h builds its "undefined" vectors by self-
// initialisation (`__m512i __Y = __Y;`), which -Wmaybe-uninitialized reports
// at every inlined AVX-512 intrinsic (GCC bug 105593, fixed in GCC 13). The
// report is about the header, not this code; it is silenced for the two
// AVX-512 functions below only, so a -Werror build succeeds.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// Hillis-Steele prefix scan across the 8 u64 lanes of `g`: lane j becomes
/// sum_{t<=j} g[t] << (j-t), i.e. the gear fold of 8 bytes starting from 0.
__attribute__((target("avx2,avx512f"))) inline __m512i gear_prefix8(
    __m512i g) {
  __m512i sh = _mm512_maskz_alignr_epi64(0xfe, g, _mm512_setzero_si512(), 7);
  g = _mm512_add_epi64(g, _mm512_slli_epi64(sh, 1));
  sh = _mm512_maskz_alignr_epi64(0xfc, g, _mm512_setzero_si512(), 6);
  g = _mm512_add_epi64(g, _mm512_slli_epi64(sh, 2));
  sh = _mm512_maskz_alignr_epi64(0xf0, g, _mm512_setzero_si512(), 4);
  g = _mm512_add_epi64(g, _mm512_slli_epi64(sh, 4));
  return g;
}

/// 32 bytes per iteration: four 8-lane gathers feed four prefix scans whose
/// cross-vector merges and running-hash fold are all OFF the loop-carried
/// chain (the only carried value is the broadcast of lane 31). Measured
/// gather-throughput-bound: ~9 cycles per vpgatherqq on Ice Lake is the
/// whole iteration cost.
__attribute__((target("avx2,avx512f"))) size_t gear_scan_avx512(
    const uint8_t* data, size_t pos, size_t end, uint64_t mask, uint64_t& h,
    const uint64_t* table) {
  const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(mask));
  const __m512i seven = _mm512_set1_epi64(7);
  const __m512i ls1 = _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8);
  const __m512i ls9 = _mm512_setr_epi64(9, 10, 11, 12, 13, 14, 15, 16);
  const __m512i ls17 = _mm512_setr_epi64(17, 18, 19, 20, 21, 22, 23, 24);
  const __m512i ls25 = _mm512_setr_epi64(25, 26, 27, 28, 29, 30, 31, 32);
  __m512i hv = _mm512_set1_epi64(static_cast<long long>(h));
  while (pos + 32 <= end) {
    const __m256i bytes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + pos));
    const __m128i b0 = _mm256_castsi256_si128(bytes);
    const __m128i b1 = _mm256_extracti128_si256(bytes, 1);
    const __m512i g0 =
        _mm512_i64gather_epi64(_mm512_cvtepu8_epi64(b0), table, 8);
    const __m512i g1 = _mm512_i64gather_epi64(
        _mm512_cvtepu8_epi64(_mm_srli_si128(b0, 8)), table, 8);
    const __m512i g2 =
        _mm512_i64gather_epi64(_mm512_cvtepu8_epi64(b1), table, 8);
    const __m512i g3 = _mm512_i64gather_epi64(
        _mm512_cvtepu8_epi64(_mm_srli_si128(b1, 8)), table, 8);
    const __m512i p0 = gear_prefix8(g0);
    __m512i p1 = gear_prefix8(g1);
    __m512i p2 = gear_prefix8(g2);
    __m512i p3 = gear_prefix8(g3);
    const __m512i c0 = _mm512_permutexvar_epi64(seven, p0);
    p1 = _mm512_add_epi64(p1, _mm512_sllv_epi64(c0, ls1));
    const __m512i c1 = _mm512_permutexvar_epi64(seven, p1);
    p2 = _mm512_add_epi64(p2, _mm512_sllv_epi64(c1, ls1));
    const __m512i c2 = _mm512_permutexvar_epi64(seven, p2);
    p3 = _mm512_add_epi64(p3, _mm512_sllv_epi64(c2, ls1));
    const __m512i v0 = _mm512_add_epi64(p0, _mm512_sllv_epi64(hv, ls1));
    const __m512i v1 = _mm512_add_epi64(p1, _mm512_sllv_epi64(hv, ls9));
    const __m512i v2 = _mm512_add_epi64(p2, _mm512_sllv_epi64(hv, ls17));
    const __m512i v3 = _mm512_add_epi64(p3, _mm512_sllv_epi64(hv, ls25));
    const unsigned hits =
        static_cast<unsigned>(_mm512_testn_epi64_mask(v0, vmask)) |
        (static_cast<unsigned>(_mm512_testn_epi64_mask(v1, vmask)) << 8) |
        (static_cast<unsigned>(_mm512_testn_epi64_mask(v2, vmask)) << 16) |
        (static_cast<unsigned>(_mm512_testn_epi64_mask(v3, vmask)) << 24);
    if (hits != 0) {
      alignas(64) uint64_t out[32];
      _mm512_store_si512(out, v0);
      _mm512_store_si512(out + 8, v1);
      _mm512_store_si512(out + 16, v2);
      _mm512_store_si512(out + 24, v3);
      const int j = __builtin_ctz(hits);
      h = out[static_cast<unsigned>(j)];
      return pos + static_cast<size_t>(j) + 1;
    }
    hv = _mm512_permutexvar_epi64(seven, v3);
    pos += 32;
  }
  h = static_cast<uint64_t>(
      _mm_cvtsi128_si64(_mm512_castsi512_si128(hv)));
  return gear_scan_scalar(data, pos, end, mask, h, table);
}

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic pop
#endif

#endif  // DEFRAG_SIMD_X86

}  // namespace

std::size_t gear_scan_scalar(const std::uint8_t* data, std::size_t pos,
                             std::size_t end, std::uint64_t mask,
                             std::uint64_t& h, const std::uint64_t* table) {
  uint64_t x = h;
  for (; pos < end; ++pos) {
    x = (x << 1) + table[data[pos]];
    if ((x & mask) == 0) {
      h = x;
      return pos + 1;
    }
  }
  h = x;
  return kNoBoundary;
}

GearScanFn gear_scan_for(cpu::IsaLevel level) {
#if DEFRAG_SIMD_X86
  switch (level) {
    case cpu::IsaLevel::kAvx512:
      return &gear_scan_avx512;
    case cpu::IsaLevel::kAvx2:
      return &gear_scan_avx2;
    case cpu::IsaLevel::kSse41:
      return &gear_scan_sse41;
    case cpu::IsaLevel::kScalar:
      return &gear_scan_scalar;
  }
#else
  (void)level;
#endif
  return &gear_scan_scalar;
}

GearScanFn active_gear_scan() {
  // Publish the dispatch decision once; consult the (test-overridable)
  // active level on every call so DEFRAG_FORCE_SCALAR and the in-process
  // override both steer production scans.
  static const bool published = [] {
    obs::MetricsRegistry::global()
        .gauge("system.cpu.isa_level")
        .set(static_cast<double>(static_cast<int>(cpu::active_isa_level())));
    return true;
  }();
  (void)published;
  const cpu::IsaLevel level = cpu::active_isa_level();
  // Dispatch policy (measured on Ice Lake-SP, see DESIGN.md): the scalar
  // loop is load-bound at ~1.6 GB/s and the SSE4.1/AVX2 block kernels sit
  // at or slightly below it, so only the AVX-512 gather+prefix kernel —
  // the one formulation measured ahead of scalar — dispatches wide. The
  // narrower kernels stay reachable via gear_scan_for() for tests/benches.
  if (level == cpu::IsaLevel::kAvx512) return gear_scan_for(level);
  return &gear_scan_scalar;
}

void add_simd_bytes(std::uint64_t bytes) {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("chunking.simd_bytes");
  counter.add(bytes);
}

}  // namespace defrag::simd
