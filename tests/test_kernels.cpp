// Tests for the SIMD microkernel registry, the autotuned tile cache, and
// the determinism contract binding them: every compiled-in variant, at
// every tile the tuner may choose, must produce byte-identical outputs
// (kernels/microkernel.hpp). Also pins the Workspace's 64-byte alignment
// guarantee the packed panels rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "profiler/counters.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/registry.hpp"
#include "tensor/kernels/tuner.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/quantize.hpp"
#include "tensor/workspace.hpp"

namespace dcn {
namespace {

using kernels::KernelRegistry;
using kernels::TileTuner;

// The suite never reads or pollutes the user's ~/.cache: every test runs
// against one suite-level tuner cache directory, so a shape class one
// variant sweep tuned is a memo or disk hit for the next sweep instead of
// a second cold autotune. Tests of the tuner's own cold / warm / corrupt
// paths call use_private_cache() to start from an empty directory.
class KernelsTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    shared_dir_ = std::filesystem::temp_directory_path() /
                  ("dcn-kernels-test-" + std::to_string(::getpid()));
    std::filesystem::remove_all(shared_dir_);
  }
  static void TearDownTestSuite() {
    TileTuner::global().set_cache_dir("");
    std::filesystem::remove_all(shared_dir_);
  }

  void SetUp() override {
    // set_cache_dir drops the memo, so only switch back when a previous
    // test left a private directory behind.
    if (TileTuner::global().cache_dir() != shared_dir_.string()) {
      TileTuner::global().set_cache_dir(shared_dir_.string());
    }
    // Neutralize an ambient variant override (the CI portable leg runs the
    // whole suite with DCN_KERNEL_VARIANT=generic): these tests assert
    // auto-selection and set the variable themselves where needed.
    const char* ambient = std::getenv("DCN_KERNEL_VARIANT");
    if (ambient != nullptr) ambient_variant_ = ambient;
    ::unsetenv("DCN_KERNEL_VARIANT");
    KernelRegistry::global().reselect();
  }
  void TearDown() override {
    if (!ambient_variant_.empty()) {
      ::setenv("DCN_KERNEL_VARIANT", ambient_variant_.c_str(), 1);
    }
    KernelRegistry::global().reselect();
    if (!private_dir_.empty()) std::filesystem::remove_all(private_dir_);
  }
  // Point the tuner at an empty directory of this test's own (and drop the
  // memo), so the test sees a cold cache whatever ran before it.
  void use_private_cache() {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    private_dir_ = shared_dir_.string() + "-" + info->name();
    std::filesystem::remove_all(private_dir_);
    TileTuner::global().set_cache_dir(private_dir_.string());
  }
  inline static std::filesystem::path shared_dir_;
  std::filesystem::path private_dir_;
  std::string ambient_variant_;
};

std::vector<float> random_matrix(std::int64_t rows, std::int64_t cols,
                                 Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(rows * cols));
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

// ---------------------------------------------------------------- registry

TEST_F(KernelsTest, RegistryListsGenericFirstAndActiveIsSupported) {
  KernelRegistry& reg = KernelRegistry::global();
  const auto names = reg.variant_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "generic");
  EXPECT_TRUE(reg.variant_supported("generic"));
  EXPECT_TRUE(reg.variant_supported(reg.active().name));
  // Auto selection picks the highest supported priority.
  const auto* active = reg.find(reg.active().name);
  ASSERT_NE(active, nullptr);
  for (const auto& name : names) {
    const auto* v = reg.find(name);
    ASSERT_NE(v, nullptr);
    if (reg.variant_supported(name)) {
      EXPECT_LE(v->priority, active->priority) << name;
    }
  }
}

TEST_F(KernelsTest, EveryVariantRegistersCompleteKernelSet) {
  KernelRegistry& reg = KernelRegistry::global();
  for (const auto& name : reg.variant_names()) {
    const auto* v = reg.find(name);
    ASSERT_NE(v, nullptr) << name;
    EXPECT_FALSE(v->sgemm.empty()) << name;
    EXPECT_NE(v->qgemm_row, nullptr) << name;
    EXPECT_NE(v->accumulate, nullptr) << name;
    EXPECT_NE(v->quantize_u8, nullptr) << name;
    EXPECT_NE(v->quantize_s8, nullptr) << name;
    for (const auto& k : v->sgemm) {
      EXPECT_GE(k.mr, 1);
      EXPECT_LE(k.mr, kernels::kMaxMr);
      EXPECT_GE(k.nr, 1);
      EXPECT_LE(k.nr, kernels::kMaxNr);
      EXPECT_NE(k.fn, nullptr);
    }
  }
}

TEST_F(KernelsTest, ForceVariantRefusesUnknownAndKeepsSelection) {
  KernelRegistry& reg = KernelRegistry::global();
  const std::string before = reg.active().name;
  EXPECT_FALSE(reg.force_variant("no-such-isa"));
  EXPECT_EQ(reg.active().name, before);
  KernelRegistry::ScopedForce bogus("also-missing");
  EXPECT_FALSE(bogus.ok());
  EXPECT_EQ(reg.active().name, before);
}

TEST_F(KernelsTest, EnvOverrideHonoredByReselect) {
  KernelRegistry& reg = KernelRegistry::global();
  const std::string before = reg.active().name;
  ASSERT_EQ(::setenv("DCN_KERNEL_VARIANT", "generic", 1), 0);
  reg.reselect();
  EXPECT_EQ(reg.active().name, "generic");
  // An unknown name falls back to auto selection instead of failing.
  ASSERT_EQ(::setenv("DCN_KERNEL_VARIANT", "bogus", 1), 0);
  reg.reselect();
  EXPECT_EQ(reg.active().name, before);
  ASSERT_EQ(::unsetenv("DCN_KERNEL_VARIANT"), 0);
  reg.reselect();
  EXPECT_EQ(reg.active().name, before);
}

// ------------------------------------------- cross-variant bit-equality --

// Runs one sgemm under the currently forced variant and returns C.
std::vector<float> run_case(std::int64_t m, std::int64_t n, std::int64_t k,
                            bool ta, bool tb, float alpha, float beta,
                            bool with_epilogue, const std::vector<float>& a,
                            const std::vector<float>& b,
                            const std::vector<float>& bias,
                            const std::vector<float>& c0) {
  std::vector<float> c = c0;
  GemmEpilogue ep;
  if (with_epilogue) {
    ep.row_bias = bias.data();
    ep.relu = true;
  }
  const std::int64_t lda = ta ? m : k;
  const std::int64_t ldb = tb ? k : n;
  sgemm_ex(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
           c.data(), n, ep);
  return c;
}

TEST_F(KernelsTest, AllVariantsBitIdenticalAcrossTransAlphaBetaEpilogue) {
  KernelRegistry& reg = KernelRegistry::global();
  const struct {
    int m, n, k;
  } shapes[] = {{5, 9, 7}, {65, 257, 129}, {131, 63, 300}};
  for (const auto& s : shapes) {
    Rng rng(static_cast<std::uint64_t>(s.m * 131071 + s.n * 8191 + s.k));
    const auto a_nt = random_matrix(s.m, s.k, rng);
    const auto a_t = random_matrix(s.k, s.m, rng);
    const auto b_nt = random_matrix(s.k, s.n, rng);
    const auto b_t = random_matrix(s.n, s.k, rng);
    const auto bias = random_matrix(1, s.m, rng);
    const auto c0 = random_matrix(s.m, s.n, rng);
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        for (float alpha : {1.0f, 0.5f}) {
          for (float beta : {0.0f, 2.0f}) {
            for (bool epi : {false, true}) {
              const auto& a = ta ? a_t : a_nt;
              const auto& b = tb ? b_t : b_nt;
              std::vector<float> ref;
              {
                KernelRegistry::ScopedForce force("generic");
                ASSERT_TRUE(force.ok());
                ref = run_case(s.m, s.n, s.k, ta, tb, alpha, beta, epi, a, b,
                               bias, c0);
              }
              for (const auto& name : reg.variant_names()) {
                if (!reg.variant_supported(name)) continue;
                KernelRegistry::ScopedForce force(name);
                ASSERT_TRUE(force.ok()) << name;
                const auto got = run_case(s.m, s.n, s.k, ta, tb, alpha, beta,
                                          epi, a, b, bias, c0);
                ASSERT_EQ(0,
                          std::memcmp(ref.data(), got.data(),
                                      ref.size() * sizeof(float)))
                    << name << " diverges from generic at " << s.m << 'x'
                    << s.n << 'x' << s.k << " ta=" << ta << " tb=" << tb
                    << " alpha=" << alpha << " beta=" << beta
                    << " epi=" << epi;
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelsTest, EveryVariantMatchesReferenceWithinTolerance) {
  KernelRegistry& reg = KernelRegistry::global();
  Rng rng(77);
  const int m = 65, n = 257, k = 129;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c_ref(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm_reference(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                  c_ref.data(), n);
  for (const auto& name : reg.variant_names()) {
    if (!reg.variant_supported(name)) continue;
    KernelRegistry::ScopedForce force(name);
    ASSERT_TRUE(force.ok());
    std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
    sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
          c.data(), n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], 2e-3f * k) << name << " at " << i;
    }
  }
}

TEST_F(KernelsTest, EveryVariantBitIdenticalAcrossThreadCounts) {
  KernelRegistry& reg = KernelRegistry::global();
  Rng rng(21);
  const int m = 131, n = 263, k = 517;  // odd everything, multiple K blocks
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  for (const auto& name : reg.variant_names()) {
    if (!reg.variant_supported(name)) continue;
    KernelRegistry::ScopedForce force(name);
    ASSERT_TRUE(force.ok());
    std::vector<float> c1(static_cast<std::size_t>(m) * n, 0.0f);
    std::vector<float> c5 = c1;
    {
      ScopedNumThreads guard(1);
      sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
            c1.data(), n);
    }
    {
      ScopedNumThreads guard(5);
      sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
            c5.data(), n);
    }
    EXPECT_EQ(0, std::memcmp(c1.data(), c5.data(), c1.size() * sizeof(float)))
        << name;
  }
}

TEST_F(KernelsTest, AllTunableTilesBitIdentical) {
  // The tuner only ever changes speed: force each registered tile of the
  // active variant and check the outputs are memcmp-equal.
  const kernels::KernelVariant& v = KernelRegistry::global().active();
  Rng rng(55);
  const int m = 70, n = 130, k = 300;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> ref;
  for (const auto& tile : v.sgemm) {
    TileTuner::ScopedForcedTile force(tile.mr, tile.nr);
    std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
    sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
          c.data(), n);
    if (ref.empty()) {
      ref = c;
    } else {
      EXPECT_EQ(0, std::memcmp(ref.data(), c.data(), c.size() * sizeof(float)))
          << "tile " << tile.mr << 'x' << tile.nr;
    }
  }
}

// ----------------------------------------------------------------- tuner --

TEST_F(KernelsTest, TunerColdThenWarmFromDiskIsByteIdentical) {
  use_private_cache();
  TileTuner& tuner = TileTuner::global();
  tuner.reset_stats();
  profiler::reset_counters();
  Rng rng(91);
  const int m = 150, n = 270, k = 310;  // a class no other test tunes
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> cold(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        cold.data(), n);
  const auto after_cold = tuner.stats();
  EXPECT_GE(after_cold.tuned, 1);
  EXPECT_GE(profiler::counter_value("tuner.tuned"), 1);
  EXPECT_GE(profiler::counter_value("tuner_cache.miss"), 1);

  // Drop the memo; the winner must replay from disk, not re-tune.
  tuner.clear_memory();
  std::vector<float> warm(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        warm.data(), n);
  const auto after_warm = tuner.stats();
  EXPECT_GE(after_warm.disk_hits, after_cold.disk_hits + 1);
  EXPECT_EQ(after_warm.tuned, after_cold.tuned);
  EXPECT_GE(profiler::counter_value("tuner_cache.disk_hit"), 1);
  EXPECT_EQ(0,
            std::memcmp(cold.data(), warm.data(), cold.size() * sizeof(float)));

  // Third run hits the rebuilt memo.
  std::vector<float> memo(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        memo.data(), n);
  EXPECT_GE(tuner.stats().memo_hits, after_warm.memo_hits + 1);
  EXPECT_GE(profiler::counter_value("tuner_cache.hit"), 1);
}

TEST_F(KernelsTest, CorruptedCacheEntryFallsBackToRetune) {
  use_private_cache();
  TileTuner& tuner = TileTuner::global();
  const kernels::KernelVariant& v = KernelRegistry::global().active();
  Rng rng(92);
  const int m = 150, n = 270, k = 310;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> first(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        first.data(), n);
  const std::string key = TileTuner::cache_key(v, 'f', m, n, k);
  const std::string path = tuner.entry_path(key);
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  {
    std::ofstream out(path, std::ios::trunc);
    out << "dcn-tile-cache-v1\nkey=" << key << "\nmr=9999\nnr=-3\n";
  }
  tuner.clear_memory();
  tuner.reset_stats();
  std::vector<float> second(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        second.data(), n);
  const auto stats = tuner.stats();
  EXPECT_GE(stats.corrupt_entries, 1);
  EXPECT_GE(stats.tuned, 1);  // silently re-tuned
  EXPECT_GE(profiler::counter_value("tuner_cache.corrupt"), 1);
  EXPECT_EQ(0, std::memcmp(first.data(), second.data(),
                           first.size() * sizeof(float)));
}

TEST_F(KernelsTest, DisabledTunerUsesVariantDefaultWithoutTouchingCache) {
  TileTuner& tuner = TileTuner::global();
  tuner.set_enabled(false);
  tuner.reset_stats();
  Rng rng(93);
  const int m = 90, n = 110, k = 140;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
        n);
  const auto stats = tuner.stats();
  EXPECT_EQ(stats.tuned, 0);
  EXPECT_EQ(stats.memo_misses, 0);
  EXPECT_EQ(stats.disk_misses, 0);
  tuner.set_enabled(true);
}

TEST_F(KernelsTest, CacheKeyBucketsShapesIntoClasses) {
  const kernels::KernelVariant& v = KernelRegistry::global().active();
  // Same power-of-two class -> same key; different class -> different key.
  EXPECT_EQ(TileTuner::cache_key(v, 'f', 65, 257, 129),
            TileTuner::cache_key(v, 'f', 100, 500, 200));
  EXPECT_NE(TileTuner::cache_key(v, 'f', 65, 257, 129),
            TileTuner::cache_key(v, 'f', 300, 257, 129));
  // Small dims are kept exact.
  EXPECT_NE(TileTuner::cache_key(v, 'f', 5, 9, 7),
            TileTuner::cache_key(v, 'f', 6, 9, 7));
  // Precision is part of the key.
  EXPECT_NE(TileTuner::cache_key(v, 'f', 64, 64, 64),
            TileTuner::cache_key(v, 'q', 64, 64, 64));
}

// ----------------------------------------------------------------- qgemm --

// Turns the tuner off for its scope, so a variant sweep runs each
// variant's default tile instead of cold-tuning a shape class per variant
// (which costs more than the check itself; the outputs do not depend on it).
struct ScopedTunerOff {
  ScopedTunerOff() { TileTuner::global().set_enabled(false); }
  ~ScopedTunerOff() { TileTuner::global().set_enabled(true); }
};

TEST_F(KernelsTest, QgemmEveryVariantBitExactAgainstReference) {
  KernelRegistry& reg = KernelRegistry::global();
  Rng rng(44);
  // A random case with a fused epilogue (tuned), then saturated bytes with
  // the tuner off: every byte of B at 255 against av = +-127 is the widest
  // product the u8 -> s32 widening sees, k = 4096 is SPP-Net #2's longest
  // reduction, the screener's conv lowerings are 8x576x36 and 16x144x72,
  // and n = 37 / 61 are not a multiple of any lane width.
  struct Case {
    std::int64_t m, n, k;
    std::int32_t zero_point;
    bool saturated;
  };
  const Case cases[] = {
      {37, 113, 71, 131, false}, {5, 37, 4096, 0, true},
      {5, 37, 4096, 255, true},  {8, 576, 36, 0, true},
      {8, 576, 36, 255, true},   {16, 144, 72, 0, true},
      {16, 144, 72, 255, true},  {3, 61, 1, 0, true},
      {3, 61, 1, 255, true}};
  for (const Case& cs : cases) {
    const std::int64_t m = cs.m, n = cs.n, k = cs.k;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n), 255);
    std::vector<float> scales(static_cast<std::size_t>(m), 1.0f / 64.0f);
    if (cs.saturated) {
      for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<std::int8_t>(i % 3 == 0 ? -127 : 127);
      }
    } else {
      for (auto& v : a) {
        v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
      }
      for (auto& v : b) {
        v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      for (auto& s : scales) {
        s = 0.01f + 0.001f * static_cast<float>(rng.normal());
      }
    }
    QuantParams bp;
    bp.scale = cs.saturated ? 0.5f : 0.02f;
    bp.zero_point = cs.zero_point;
    std::vector<float> bias(static_cast<std::size_t>(m), 0.25f);
    QuantEpilogue ep;
    if (!cs.saturated) {
      ep.row_bias = bias.data();
      ep.relu = true;
    }
    const std::string what = std::to_string(m) + "x" + std::to_string(n) +
                             "x" + std::to_string(k) +
                             " zp=" + std::to_string(cs.zero_point);
    std::vector<float> ref(static_cast<std::size_t>(m * n), 0.0f);
    qgemm_reference(m, n, k, a.data(), k, scales.data(), m, b.data(), n, bp,
                    ref.data(), n, ep);
    std::optional<ScopedTunerOff> tuner_off;
    if (cs.saturated) tuner_off.emplace();
    for (const auto& name : reg.variant_names()) {
      if (!reg.variant_supported(name)) continue;
      KernelRegistry::ScopedForce force(name);
      ASSERT_TRUE(force.ok());
      for (int threads : {1, 4}) {
        ScopedNumThreads guard(threads);
        std::vector<float> c(static_cast<std::size_t>(m * n), -1.0f);
        qgemm(m, n, k, a.data(), k, scales.data(), m, b.data(), n, bp,
              c.data(), n, ep);
        EXPECT_EQ(0, std::memcmp(ref.data(), c.data(), ref.size() *
                                                           sizeof(float)))
            << what << ": " << name << " threads=" << threads;
      }
    }
  }
}

// -------------------------------------------------------------- quantize --

TEST_F(KernelsTest, QuantizeEveryVariantBitExactIncludingTieEdges) {
  KernelRegistry& reg = KernelRegistry::global();
  // Adversarial values for ties-away rounding: the naive trunc(v + 0.5)
  // breaks on 0.49999997f (rounds to 1); exact halves must round away from
  // zero in both signs; values beyond the clamp must saturate. Then values
  // at and just past both clamps of u8 (zero point 7, so the edges sit at
  // -7 and 248) and of s8 (+-127).
  std::vector<float> src = {
      0.49999997f, -0.49999997f, 0.5f,    -0.5f,    1.5f,     -1.5f,
      2.5f,        -2.5f,        0.0f,    -0.0f,    127.49f,  -127.49f,
      127.5f,      -127.5f,      1.0e9f,  -1.0e9f,  254.49998f, 254.5f,
      255.49f,     300.0f,       1.0e-40f, -1.0e-40f, 3.49f,  -3.49f,
      -8.0f,       -7.5f,        -7.49f,  -7.0f,    -6.5f,    247.5f,
      248.0f,      248.49f,      248.5f,  249.0f,   -128.0f,  -127.0f,
      126.5f,      127.0f,       128.0f};
  Rng rng(101);
  for (int i = 0; i < 1000; ++i) {
    src.push_back(static_cast<float>(rng.normal()) * 80.0f);
  }
  const std::int64_t n = static_cast<std::int64_t>(src.size());
  QuantParams params;
  params.scale = 1.0f;
  params.zero_point = 7;

  std::vector<std::uint8_t> u8_ref(src.size());
  std::vector<std::int8_t> s8_ref(src.size());
  {
    KernelRegistry::ScopedForce force("generic");
    ASSERT_TRUE(force.ok());
    quantize_u8(src.data(), n, params, u8_ref.data());
    quantize_s8(src.data(), n, 1.0f, s8_ref.data());
  }
  for (const auto& name : reg.variant_names()) {
    if (!reg.variant_supported(name)) continue;
    KernelRegistry::ScopedForce force(name);
    ASSERT_TRUE(force.ok());
    std::vector<std::uint8_t> u8(src.size());
    std::vector<std::int8_t> s8(src.size());
    quantize_u8(src.data(), n, params, u8.data());
    quantize_s8(src.data(), n, 1.0f, s8.data());
    EXPECT_EQ(0, std::memcmp(u8_ref.data(), u8.data(), u8.size())) << name;
    EXPECT_EQ(0, std::memcmp(s8_ref.data(), s8.data(), s8.size())) << name;
    // Quantization is elementwise, so every length from 1 to 70 at start
    // offsets 0..3 must reproduce its slice of the generic output: the
    // clamp edges land in vector bodies, scalar tails and unaligned lanes.
    for (int threads : {1, 4}) {
      ScopedNumThreads guard(threads);
      for (std::int64_t offset = 0; offset < 4; ++offset) {
        for (std::int64_t len = 1; len <= 70; ++len) {
          quantize_u8(src.data() + offset, len, params, u8.data());
          quantize_s8(src.data() + offset, len, 1.0f, s8.data());
          EXPECT_EQ(0, std::memcmp(u8_ref.data() + offset, u8.data(),
                                   static_cast<std::size_t>(len)))
              << name << " threads=" << threads << " offset=" << offset
              << " n=" << len;
          EXPECT_EQ(0, std::memcmp(s8_ref.data() + offset, s8.data(),
                                   static_cast<std::size_t>(len)))
              << name << " threads=" << threads << " offset=" << offset
              << " n=" << len;
        }
      }
    }
  }
}

TEST_F(KernelsTest, TransposedBSgemmMatchesGenericAndTheUntransposedPack) {
  // nn::Linear's x * W^T: W stored [n, k] with a padded row stride. The
  // transposed pack must produce the same panel bytes as packing an
  // explicit W^T, so the two calls are memcmp-equal on every variant. At
  // m = 8 the product is large enough for two bands at 4 threads.
  Rng rng(57);
  const std::int64_t n = 2053, k = 520, ldb = k + 5;  // ragged n, 3 K blocks
  const auto w = random_matrix(n, ldb, rng);
  std::vector<float> wt(static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t p = 0; p < k; ++p) wt[p * n + j] = w[j * ldb + p];
  }
  std::vector<float> bias(static_cast<std::size_t>(n));
  for (auto& v : bias) v = static_cast<float>(rng.normal());
  GemmEpilogue ep;
  ep.col_bias = bias.data();
  ep.relu = true;
  for (const std::int64_t m : {1, 5, 8}) {
    const auto x = random_matrix(m, k, rng);
    const auto size = static_cast<std::size_t>(m * n);
    const std::string what = "m=" + std::to_string(m);
    const auto transposed = [&](float* y) {
      sgemm_ex(false, true, m, n, k, 1.0f, x.data(), k, w.data(), ldb, 0.0f,
               y, n, ep);
    };
    {
      // Every variant at its default tile against the generic variant.
      ScopedTunerOff tuner_off;
      std::vector<float> ref(size);
      {
        KernelRegistry::ScopedForce force("generic");
        ASSERT_TRUE(force.ok());
        ScopedNumThreads guard(1);
        transposed(ref.data());
      }
      for (const auto& name : KernelRegistry::global().variant_names()) {
        if (!KernelRegistry::global().variant_supported(name)) continue;
        KernelRegistry::ScopedForce force(name);
        ASSERT_TRUE(force.ok());
        for (int threads : {1, 4}) {
          ScopedNumThreads guard(threads);
          std::vector<float> y(size);
          transposed(y.data());
          EXPECT_EQ(0, std::memcmp(ref.data(), y.data(), size * sizeof(float)))
              << what << ": " << name << " threads=" << threads;
        }
      }
    }
    // Every tile of the active variant, against the untransposed layout.
    for (const auto& tile : KernelRegistry::global().active().sgemm) {
      TileTuner::ScopedForcedTile force(tile.mr, tile.nr);
      std::vector<float> y(size), y_ref(size);
      transposed(y.data());
      sgemm_ex(false, false, m, n, k, 1.0f, x.data(), k, wt.data(), n, 0.0f,
               y_ref.data(), n, ep);
      EXPECT_EQ(0, std::memcmp(y_ref.data(), y.data(), size * sizeof(float)))
          << what << " tile " << tile.mr << 'x' << tile.nr;
    }
  }
}

// ------------------------------------------------------------- workspace --

TEST(WorkspaceAlignment, EveryAllocationIs64ByteAligned) {
  static_assert(Workspace::kAlignment == 64);
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  for (std::size_t n : {1u, 3u, 17u, 100u, 1000u, 100000u}) {
    auto* f = ws.floats(n);
    auto* b = ws.bytes(n);
    auto* i = ws.ints(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f) % Workspace::kAlignment, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % Workspace::kAlignment, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i) % Workspace::kAlignment, 0u);
  }
}

TEST(WorkspaceAlignment, GemmPackPatternKeepsPanelsAligned) {
  // The exact allocation pattern gemm_band uses: packed A then packed B out
  // of one scope, with the odd sizes real shapes produce. The SIMD micro
  // kernels rely on both panels being vector-aligned.
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  const std::int64_t mc = 128, nc = 256, kc = 256, mr = 12, nr = 48;
  float* packed_a =
      ws.floats(static_cast<std::size_t>((mc + mr - 1) / mr * mr * kc));
  float* packed_b =
      ws.floats(static_cast<std::size_t>((nc + nr - 1) / nr * nr * kc));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(packed_a) %
                Workspace::kAlignment,
            0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(packed_b) %
                Workspace::kAlignment,
            0u);
}

}  // namespace
}  // namespace dcn
