// Microkernel function contracts and the per-ISA variant descriptor.
//
// An XNNPACK-style kernel layer: the cache-blocked GEMM drivers in
// gemm.cpp/qgemm.cpp own packing, blocking, threading, and epilogues, and
// delegate only the register-resident inner loops to function pointers
// selected at runtime by the KernelRegistry. Each variant translation unit
// (variant_generic / variant_sse41 / variant_avx2 / variant_avx512) is
// compiled with its own ISA flags and registers the kernels below; the
// registry picks the widest variant the executing CPU supports.
//
// Determinism contract (pinned by test_gemm / test_quant / test_kernels):
// every kernel computes each output element with the *identical* scalar
// operation sequence — for SGEMM, per element (i,j):
//     acc = 0; for p ascending: acc += a[i,p] * b[p,j]   (mul, then add)
// with no FMA contraction (all variant TUs and gemm.cpp build with
// -ffp-contract=off) and no cross-lane reassociation, SIMD lanes only ever
// hold *distinct* output elements. Integer kernels (qgemm) are exact by
// arithmetic. Consequence: every variant, at every micro-tile size, is
// memcmp-identical to the generic reference registrant — dispatch and
// autotuning may change speed, never bits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dcn::kernels {

/// Upper bounds on micro-tile extents; drivers size stack accumulators with
/// these, so variants must not register larger tiles.
constexpr std::int64_t kMaxMr = 16;
constexpr std::int64_t kMaxNr = 64;

/// SGEMM inner kernel: acc[mr x nr] (row-major, stride nr) = sum over the
/// kb packed steps of the outer product pa-column x pb-row. Overwrites acc
/// (no read). pa is kb steps of mr floats (alpha pre-folded, zero-padded
/// tail rows); pb is kb steps of nr floats (zero-padded tail columns).
using SgemmMicroFn = void (*)(std::int64_t kb, const float* pa,
                              const float* pb, float* acc);

/// One registered SGEMM micro tile: a fixed (MR, NR) instantiation.
struct SgemmMicroKernel {
  std::int64_t mr = 0;
  std::int64_t nr = 0;
  SgemmMicroFn fn = nullptr;
};

/// Quantized GEMM inner row update: acc[j] += av * b[j] for j in [0, n),
/// int32 accumulation (exact — bit-identical for every variant).
using QgemmRowFn = void (*)(std::int64_t n, std::int32_t av,
                            const std::uint8_t* b, std::int32_t* acc);

/// dst[i] += src[i] for i in [0, n) — col2im interior accumulation.
/// Elementwise float add: exact for every vector width.
using AccumulateFn = void (*)(std::int64_t n, const float* src, float* dst);

/// Affine uint8 quantization: dst[i] = clamp(round_away(src[i] * inv_scale
/// + zp), 0, 255). round_away = round-to-nearest, ties away from zero
/// (std::lround semantics) — vector variants must reproduce it bit-exactly.
using QuantizeU8Fn = void (*)(const float* src, std::int64_t n,
                              float inv_scale, float zp, std::uint8_t* dst);

/// Symmetric int8 quantization: dst[i] = clamp(round_away(src[i] *
/// inv_scale), -127, 127).
using QuantizeS8Fn = void (*)(const float* src, std::int64_t n,
                              float inv_scale, std::int8_t* dst);

/// One ISA variant: a named bundle of kernels plus the runtime gate that
/// says whether the executing CPU can run it. Higher priority wins the
/// auto-dispatch when supported.
struct KernelVariant {
  std::string name;
  int priority = 0;
  bool (*supported)() = nullptr;  // nullptr = always supported
  /// Micro tiles this variant implements, preference-ordered; the first
  /// entry is the default when the autotuner is off. Every variant must
  /// offer at least one tile.
  std::vector<SgemmMicroKernel> sgemm;
  QgemmRowFn qgemm_row = nullptr;
  AccumulateFn accumulate = nullptr;
  QuantizeU8Fn quantize_u8 = nullptr;
  QuantizeS8Fn quantize_s8 = nullptr;

  /// The tile used when tuning is disabled (first registered entry).
  const SgemmMicroKernel& default_sgemm() const { return sgemm.front(); }
  /// The registered kernel for (mr, nr), or nullptr.
  const SgemmMicroKernel* find_sgemm(std::int64_t mr, std::int64_t nr) const {
    for (const auto& k : sgemm) {
      if (k.mr == mr && k.nr == nr) return &k;
    }
    return nullptr;
  }
};

/// Factories implemented by the variant translation units. Only the ones
/// whose DCN_KERNEL_HAVE_* macro is defined are compiled and registered.
KernelVariant make_generic_variant();
KernelVariant make_sse41_variant();
KernelVariant make_avx2_variant();
KernelVariant make_avx512_variant();

}  // namespace dcn::kernels
