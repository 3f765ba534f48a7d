// 256-bit (AVX2-class) kernel variant. Compiled with -mavx2 only — NOT
// -mfma: the determinism contract forbids contraction, so the FMA units
// would only be reachable through reassociation the engine disallows.
// Eight lanes per vector; tiles sized for the 16 ymm registers.
#include "core/cpuinfo.hpp"
#include "tensor/kernels/variant_impl.hpp"

namespace dcn::kernels {
namespace {

bool avx2_supported() { return cpu_features().avx2; }

}  // namespace

KernelVariant make_avx2_variant() {
  KernelVariant v;
  v.name = "avx2";
  v.priority = 20;
  v.supported = &avx2_supported;
  constexpr int W = 8;
  // 4x32 default mirrors the engine's historical fixed tile (4 ymm per
  // row, 16 accumulators). 6x16 is the classic BLIS-style AVX2 shape.
  v.sgemm = {
      {4, 32, &sgemm_micro_vec<4, 32, W>},
      {6, 16, &sgemm_micro_vec<6, 16, W>},
      {4, 16, &sgemm_micro_vec<4, 16, W>},
      {8, 16, &sgemm_micro_vec<8, 16, W>},
      {4, 48, &sgemm_micro_vec<4, 48, W>},
  };
  v.qgemm_row = &qgemm_row_vec<W>;
  v.accumulate = &accumulate_vec<W>;
  v.quantize_u8 = &quantize_u8_vec<W>;
  v.quantize_s8 = &quantize_s8_vec<W>;
  return v;
}

}  // namespace dcn::kernels
