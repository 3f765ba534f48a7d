// 128-bit (SSE4.1-class) kernel variant. Compiled with -msse4.1; runnable
// whenever cpuid reports sse4.1 (every x86-64 CPU since ~2008). Four lanes
// per vector: micro tiles keep the accumulator within the 16 xmm registers.
#include "core/cpuinfo.hpp"
#include "tensor/kernels/variant_impl.hpp"

namespace dcn::kernels {
namespace {

bool sse41_supported() { return cpu_features().sse41; }

}  // namespace

KernelVariant make_sse41_variant() {
  KernelVariant v;
  v.name = "sse41";
  v.priority = 10;
  v.supported = &sse41_supported;
  constexpr int W = 4;
  // 4x16 default: 16 xmm accumulators — at the register limit, but the
  // four b-row vectors are reloaded per step so spills stay off the hot
  // accumulators in practice; the tuner decides per shape anyway.
  v.sgemm = {
      {4, 16, &sgemm_micro_vec<4, 16, W>},
      {4, 8, &sgemm_micro_vec<4, 8, W>},
      {8, 8, &sgemm_micro_vec<8, 8, W>},
      {6, 16, &sgemm_micro_vec<6, 16, W>},
  };
  v.qgemm_row = &qgemm_row_vec<W>;
  v.accumulate = &accumulate_vec<W>;
  v.quantize_u8 = &quantize_u8_vec<W>;
  v.quantize_s8 = &quantize_s8_vec<W>;
  return v;
}

}  // namespace dcn::kernels
