// Shared kernel templates instantiated by each variant translation unit.
//
// Every kernel here is written with GCC/Clang generic vector extensions
// (vector_size types), so one template serves every ISA: the including TU's
// compile flags (-msse4.1 / -mavx2 / -mavx512f) decide the instructions.
// The lane width W is a template parameter; lanes always hold distinct
// output elements, so the per-element operation sequence — and therefore
// the output bits — is identical at every width (see microkernel.hpp).
//
// This header must only be included from variant_*.cpp files, which are
// all compiled with -ffp-contract=off: `acc += a * b` must stay a multiply
// followed by an add on every ISA (AVX-512 has embedded FMA forms the
// compiler would otherwise contract into).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/kernels/microkernel.hpp"

namespace dcn::kernels {

// Lane-width-specific vector types. GCC ignores a vector_size whose extent
// depends on a template parameter (the typedef silently collapses to the
// scalar), so the widths are enumerated as explicit specializations with
// literal sizes; the kernel templates below pull their types from V<W>.
// aligned(4)/aligned(1) keeps loads alignment-tolerant — packed panels only
// guarantee element alignment at tile edges.
template <int W>
struct V;
template <>
struct V<4> {
  typedef float vf __attribute__((vector_size(16), may_alias, aligned(4)));
  typedef std::int32_t vi
      __attribute__((vector_size(16), may_alias, aligned(4)));
  typedef std::uint8_t vb
      __attribute__((vector_size(4), may_alias, aligned(1)));
};
template <>
struct V<8> {
  typedef float vf __attribute__((vector_size(32), may_alias, aligned(4)));
  typedef std::int32_t vi
      __attribute__((vector_size(32), may_alias, aligned(4)));
  typedef std::uint8_t vb
      __attribute__((vector_size(8), may_alias, aligned(1)));
};
template <>
struct V<16> {
  typedef float vf __attribute__((vector_size(64), may_alias, aligned(4)));
  typedef std::int32_t vi
      __attribute__((vector_size(64), may_alias, aligned(4)));
  typedef std::uint8_t vb
      __attribute__((vector_size(16), may_alias, aligned(1)));
};

// ---------------------------------------------------------------- SGEMM ---

/// Scalar micro kernel with constexpr trip counts (the generic variant and
/// tail widths). acc stride is NR.
template <int MR, int NR>
void sgemm_micro_scalar(std::int64_t kb, const float* __restrict pa,
                        const float* __restrict pb, float* __restrict acc) {
  float c[MR][NR] = {};
  for (std::int64_t p = 0; p < kb; ++p) {
    const float* a_col = pa + p * MR;
    const float* b_row = pb + p * NR;
    for (int i = 0; i < MR; ++i) {
      const float av = a_col[i];
      for (int j = 0; j < NR; ++j) c[i][j] += av * b_row[j];
    }
  }
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < NR; ++j) acc[i * NR + j] = c[i][j];
  }
}

/// Vector micro kernel: MR x NR accumulator held as MR x (NR/W) vectors of
/// W lanes. Loads are through an alignment-4 vector typedef, so packed
/// panels need only float alignment (the Workspace hands out 64-byte
/// aligned panels anyway).
template <int MR, int NR, int W>
void sgemm_micro_vec(std::int64_t kb, const float* __restrict pa,
                     const float* __restrict pb, float* __restrict acc) {
  static_assert(NR % W == 0, "tile width must be a multiple of the lanes");
  typedef typename V<W>::vf vf;
  constexpr int NV = NR / W;
  vf c[MR][NV] = {};
  for (std::int64_t p = 0; p < kb; ++p) {
    const float* a_col = pa + p * MR;
    const float* b_row = pb + p * NR;
    vf b[NV];
    for (int j = 0; j < NV; ++j) {
      b[j] = *reinterpret_cast<const vf*>(b_row + j * W);
    }
    for (int i = 0; i < MR; ++i) {
      const float av = a_col[i];  // broadcast against each b vector
      for (int j = 0; j < NV; ++j) c[i][j] += av * b[j];
    }
  }
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < NV; ++j) {
      *reinterpret_cast<vf*>(acc + i * NR + j * W) = c[i][j];
    }
  }
}

// ---------------------------------------------------------------- qgemm ---

/// acc[j] += av * b[j], widening u8 -> s32 per lane. Integer arithmetic is
/// exact, so any width is bit-identical to the scalar loop.
template <int W>
void qgemm_row_vec(std::int64_t n, std::int32_t av, const std::uint8_t* b,
                   std::int32_t* acc) {
  typedef typename V<W>::vi vi;
  typedef typename V<W>::vb vb;
  std::int64_t j = 0;
  for (; j + W <= n; j += W) {
    const vb bytes = *reinterpret_cast<const vb*>(b + j);
    const vi wide = __builtin_convertvector(bytes, vi);
    vi* out = reinterpret_cast<vi*>(acc + j);
    *out += av * wide;
  }
  for (; j < n; ++j) acc[j] += av * static_cast<std::int32_t>(b[j]);
}

inline void qgemm_row_scalar(std::int64_t n, std::int32_t av,
                             const std::uint8_t* b, std::int32_t* acc) {
  for (std::int64_t j = 0; j < n; ++j) {
    acc[j] += av * static_cast<std::int32_t>(b[j]);
  }
}

// ----------------------------------------------------------- accumulate ---

template <int W>
void accumulate_vec(std::int64_t n, const float* __restrict src,
                    float* __restrict dst) {
  typedef typename V<W>::vf vf;
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    vf* d = reinterpret_cast<vf*>(dst + i);
    *d += *reinterpret_cast<const vf*>(src + i);
  }
  for (; i < n; ++i) dst[i] += src[i];
}

inline void accumulate_scalar(std::int64_t n, const float* __restrict src,
                              float* __restrict dst) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

// ------------------------------------------------------------- quantize ---

/// Round-to-nearest, ties away from zero, exactly matching std::lround for
/// every |v| < 2^30 (the scalar path's well-defined domain):
///   t = trunc(v); r = t + trunc(2 * (v - t))
/// v - t is exact (Sterbenz when |v| >= 1, trivially when t == 0), 2*frac
/// is exact, and trunc of it is -1/0/+1 — precisely the ties-away carry.
/// The naive trunc(v + 0.5) is NOT equivalent: adding 0.5 can round across
/// the integer boundary (e.g. v = 0.99999997f - 0.5f).
template <int W>
struct RoundAway {
  typedef typename V<W>::vf vf;
  typedef typename V<W>::vi vi;
  static vi round(vf v) {
    // Pre-clamp keeps the float->int conversions defined; any |v| this
    // large saturates the final u8/s8 clamp identically either way.
    const vf lim = vf{} + 1073741824.0f;  // 2^30
    v = v > lim ? lim : v;
    v = v < -lim ? -lim : v;
    const vi t = __builtin_convertvector(v, vi);
    const vf tf = __builtin_convertvector(t, vf);
    const vf frac2 = (v - tf) + (v - tf);
    return t + __builtin_convertvector(frac2, vi);
  }
};

template <int W>
void quantize_u8_vec(const float* src, std::int64_t n, float inv_scale,
                     float zp, std::uint8_t* dst) {
  using R = RoundAway<W>;
  typedef typename R::vf vf;
  typedef typename R::vi vi;
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    vf v = *reinterpret_cast<const vf*>(src + i);
    v = v * inv_scale + zp;
    vi r = R::round(v);
    r = r < 0 ? vi{} : r;
    r = r > 255 ? vi{} + 255 : r;
    for (int l = 0; l < W; ++l) dst[i + l] = static_cast<std::uint8_t>(r[l]);
  }
  for (; i < n; ++i) {
    const float v = src[i] * inv_scale + zp;
    const auto r = static_cast<std::int32_t>(std::lround(v));
    dst[i] = static_cast<std::uint8_t>(std::clamp(r, 0, 255));
  }
}

template <int W>
void quantize_s8_vec(const float* src, std::int64_t n, float inv_scale,
                     std::int8_t* dst) {
  using R = RoundAway<W>;
  typedef typename R::vf vf;
  typedef typename R::vi vi;
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    vf v = *reinterpret_cast<const vf*>(src + i);
    v = v * inv_scale;
    vi r = R::round(v);
    r = r < -127 ? vi{} - 127 : r;
    r = r > 127 ? vi{} + 127 : r;
    for (int l = 0; l < W; ++l) dst[i + l] = static_cast<std::int8_t>(r[l]);
  }
  for (; i < n; ++i) {
    const auto r = static_cast<std::int32_t>(std::lround(src[i] * inv_scale));
    dst[i] = static_cast<std::int8_t>(std::clamp(r, -127, 127));
  }
}

template <int W>
void dequantize_u8_vec(const std::uint8_t* src, std::int64_t n, float scale,
                       float zp, float* dst) {
  typedef typename V<W>::vf vf;
  typedef typename V<W>::vi vi;
  typedef typename V<W>::vb vb;
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const vb bytes = *reinterpret_cast<const vb*>(src + i);
    const vf v = __builtin_convertvector(
        __builtin_convertvector(bytes, vi), vf);
    *reinterpret_cast<vf*>(dst + i) = scale * (v - zp);
  }
  for (; i < n; ++i) {
    dst[i] = scale * (static_cast<float>(src[i]) - zp);
  }
}

}  // namespace dcn::kernels
