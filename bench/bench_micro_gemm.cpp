// Micro benchmarks: the blocked SGEMM vs the reference triple loop and the
// frozen pre-vectorization scalar kernel, at the shapes the SPP-Net workload
// actually hits (im2col GEMMs and FC layers). Every bench reports GFLOP/s;
// the 512^3 shape with a thread sweep is the acceptance benchmark for the
// parallel + vectorized engine (export with
//   bench_micro_gemm --benchmark_filter=512
//     --benchmark_out=BENCH_gemm.json --benchmark_out_format=json).
#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/registry.hpp"
#include "tensor/kernels/tuner.hpp"
#include "tensor/qgemm.hpp"

namespace {

using namespace dcn;

std::vector<float> random_matrix(std::int64_t n, Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(n));
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

void add_gflops(benchmark::State& state, std::int64_t m, std::int64_t n,
                std::int64_t k) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * m * n * k, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

void BM_GemmBlocked(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  const std::int64_t n = state.range(1);
  const std::int64_t k = state.range(2);
  Rng rng(1);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    matmul(false, false, m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  add_gflops(state, m, n, k);
}

void BM_GemmReference(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  const std::int64_t n = state.range(1);
  const std::int64_t k = state.range(2);
  Rng rng(1);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    sgemm_reference(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                    0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  add_gflops(state, m, n, k);
}

// The exact pre-PR kernel at its original compile flags — the honest
// baseline the >=4x acceptance criterion is measured against.
void BM_GemmScalarBaseline(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  const std::int64_t n = state.range(1);
  const std::int64_t k = state.range(2);
  Rng rng(1);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    sgemm_blocked_scalar(false, false, m, n, k, 1.0f, a.data(), k, b.data(),
                         n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  add_gflops(state, m, n, k);
  // Label with the variant the blocked engine dispatches to on this CPU, so
  // a report line "ScalarBaseline ... dispatched=avx2" says exactly which
  // pair the speedup ratio compares.
  state.SetLabel("dispatched=" +
                 kernels::KernelRegistry::global().active().name);
}

// Thread-scaling sweep of the new engine; range(3) is the engine thread
// count. Output is bit-identical across the sweep (see test_gemm).
void BM_GemmThreads(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  const std::int64_t n = state.range(1);
  const std::int64_t k = state.range(2);
  ScopedNumThreads guard(static_cast<int>(state.range(3)));
  Rng rng(1);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    matmul(false, false, m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  add_gflops(state, m, n, k);
}

// Fused bias+ReLU epilogue vs a separate post-GEMM sweep, at the conv
// lowering shape [oc x k] * [k x ohw] with a per-row bias.
void BM_GemmFusedBiasRelu(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  const std::int64_t n = state.range(1);
  const std::int64_t k = state.range(2);
  Rng rng(1);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  const auto bias = random_matrix(m, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  GemmEpilogue ep;
  ep.row_bias = bias.data();
  ep.relu = true;
  for (auto _ : state) {
    sgemm_ex(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
             c.data(), n, ep);
    benchmark::DoNotOptimize(c.data());
  }
  add_gflops(state, m, n, k);
}

void BM_GemmUnfusedBiasRelu(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  const std::int64_t n = state.range(1);
  const std::int64_t k = state.range(2);
  Rng rng(1);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  const auto bias = random_matrix(m, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    matmul(false, false, m, n, k, a.data(), b.data(), c.data());
    for (std::int64_t i = 0; i < m; ++i) {
      float* row = c.data() + i * n;
      const float bv = bias[static_cast<std::size_t>(i)];
      for (std::int64_t j = 0; j < n; ++j) {
        const float v = row[j] + bv;
        row[j] = v > 0.0f ? v : 0.0f;
      }
    }
    benchmark::DoNotOptimize(c.data());
  }
  add_gflops(state, m, n, k);
}

// conv1 im2col GEMM at 100x100: 64 x (4*3*3=36) x 10000.
// conv3 im2col GEMM at 25x25: 256 x 1152 x 625.
// SPP-Net #2 FC: 1 x 7680 -> 4096 (as 4096 x 7680 weight times vector).
// 512^3: the acceptance shape for the vectorized engine.
BENCHMARK(BM_GemmBlocked)
    ->Args({64, 10000, 36})
    ->Args({256, 625, 1152})
    ->Args({4096, 1, 7680})
    ->Args({256, 256, 256})
    ->Args({512, 512, 512})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_GemmReference)
    ->Args({256, 256, 256})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_GemmScalarBaseline)
    ->Args({256, 256, 256})
    ->Args({512, 512, 512})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_GemmThreads)
    ->Args({512, 512, 512, 1})
    ->Args({512, 512, 512, 2})
    ->Args({512, 512, 512, 4})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_GemmFusedBiasRelu)
    ->Args({64, 10000, 36})
    ->Args({256, 625, 1152})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_GemmUnfusedBiasRelu)
    ->Args({64, 10000, 36})
    ->Args({256, 625, 1152})
    ->Unit(benchmark::kMillisecond);

void BM_GemmTransposedB(benchmark::State& state) {
  // The Linear layer's x * W^T pattern.
  const std::int64_t batch = state.range(0);
  const std::int64_t in = 7680;
  const std::int64_t out = 4096;
  Rng rng(1);
  const auto x = random_matrix(batch * in, rng);
  const auto w = random_matrix(out * in, rng);
  std::vector<float> y(static_cast<std::size_t>(batch * out));
  for (auto _ : state) {
    matmul(false, true, batch, out, in, x.data(), w.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  add_gflops(state, batch, out, in);
}

// Arg(5): the cascade scan's SPP-Net #2 batch of survivors through FC1.
BENCHMARK(BM_GemmTransposedB)
    ->Arg(1)
    ->Arg(5)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

// Per-variant A/B: the same blocked driver forced onto each compiled-in
// SIMD variant (generic / sse41 / avx2 / avx512). Variants the executing
// CPU cannot run are skipped with an error label instead of faulting.
// Registered dynamically because the variant list is a build/runtime
// property, not a compile-time constant of this file.
void run_variant_bench(benchmark::State& state, const std::string& name,
                       std::int64_t m, std::int64_t n, std::int64_t k) {
  auto& registry = kernels::KernelRegistry::global();
  if (!registry.variant_supported(name)) {
    state.SkipWithError(("variant not supported on this CPU: " + name).c_str());
    return;
  }
  kernels::KernelRegistry::ScopedForce force(name);
  Rng rng(1);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  // Warmup outside the timed loop: the first call on a cold cache runs the
  // autotuner, which would otherwise dominate the first iteration.
  matmul(false, false, m, n, k, a.data(), b.data(), c.data());
  for (auto _ : state) {
    matmul(false, false, m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  add_gflops(state, m, n, k);
}

// Per-variant int8 conv lowering: qgemm of an [m, k] s8 filter matrix by a
// [k, n] u8 im2col panel, at one thread, so the u8 -> s32 widening of each
// variant's row kernel is what the numbers compare.
void run_qgemm_variant_bench(benchmark::State& state, const std::string& name,
                             std::int64_t m, std::int64_t n, std::int64_t k) {
  auto& registry = kernels::KernelRegistry::global();
  if (!registry.variant_supported(name)) {
    state.SkipWithError(("variant not supported on this CPU: " + name).c_str());
    return;
  }
  kernels::KernelRegistry::ScopedForce force(name);
  ScopedNumThreads guard(1);
  Rng rng(1);
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const std::vector<float> scales(static_cast<std::size_t>(m), 0.01f);
  QuantParams b_params;
  b_params.scale = 0.02f;
  b_params.zero_point = 128;
  std::vector<float> c(static_cast<std::size_t>(m * n));
  const auto run = [&] {
    qgemm(m, n, k, a.data(), k, scales.data(), m, b.data(), n, b_params,
          c.data(), n);
  };
  run();  // absorbs any cold autotuning
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(c.data());
  }
  add_gflops(state, m, n, k);
}

// Tile sweep over every micro tile the *active* variant registers, each
// forced through the tuner (macro blocking stays the tuner default). The
// spread between the best and worst rows is the headroom the autotuner
// captures; outputs are bit-identical across the whole sweep.
void run_tile_bench(benchmark::State& state, std::int64_t mr, std::int64_t nr,
                    std::int64_t m, std::int64_t n, std::int64_t k) {
  kernels::TileTuner::ScopedForcedTile force(mr, nr);
  Rng rng(1);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  matmul(false, false, m, n, k, a.data(), b.data(), c.data());
  for (auto _ : state) {
    matmul(false, false, m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  add_gflops(state, m, n, k);
}

int register_kernel_benches() {
  auto& registry = kernels::KernelRegistry::global();
  for (const auto& name : registry.variant_names()) {
    for (const auto& shape :
         {std::array<std::int64_t, 3>{512, 512, 512},
          std::array<std::int64_t, 3>{256, 625, 1152}}) {
      const std::string bench_name =
          "BM_GemmVariant/" + name + "/" + std::to_string(shape[0]) + "x" +
          std::to_string(shape[1]) + "x" + std::to_string(shape[2]);
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [name, shape](benchmark::State& state) {
            run_variant_bench(state, name, shape[0], shape[1], shape[2]);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
  // The scan screener's conv lowerings: conv0 (8 filters of 4x3x3 over a
  // 24x24 output) and conv1 (16 filters of 8x3x3 over 12x12).
  for (const auto& name : registry.variant_names()) {
    for (const auto& shape : {std::array<std::int64_t, 3>{8, 576, 36},
                              std::array<std::int64_t, 3>{16, 144, 72}}) {
      const std::string bench_name =
          "BM_QgemmVariant/" + name + "/" + std::to_string(shape[0]) + "x" +
          std::to_string(shape[1]) + "x" + std::to_string(shape[2]);
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [name, shape](benchmark::State& state) {
            run_qgemm_variant_bench(state, name, shape[0], shape[1],
                                    shape[2]);
          })
          ->Unit(benchmark::kMicrosecond);
    }
  }
  const auto& active = registry.active();
  for (const auto& tile : active.sgemm) {
    const std::string bench_name =
        "BM_GemmTileSweep/" + active.name + "/" + std::to_string(tile.mr) +
        "x" + std::to_string(tile.nr);
    const std::int64_t mr = tile.mr;
    const std::int64_t nr = tile.nr;
    benchmark::RegisterBenchmark(bench_name.c_str(),
                                 [mr, nr](benchmark::State& state) {
                                   run_tile_bench(state, mr, nr, 512, 512,
                                                  512);
                                 })
        ->Unit(benchmark::kMillisecond);
  }
  return 0;
}

[[maybe_unused]] const int kKernelBenchesRegistered = register_kernel_benches();

}  // namespace
