// Autotuner for micro-tile and cache-blocking parameters.
//
// Mirrors the IOS schedule cache's design (ios/schedule_cache.hpp): a
// content-addressed memo keyed canonically — here by (kernel variant,
// precision, shape class) — with hit/miss counters surfaced through the
// profiler report. Two storage tiers: an in-process map for the hot path
// and an on-disk cache (one file per key under DCN_TUNER_CACHE, default
// ~/.cache/dcn-tuner) so winners survive across processes; a corrupted or
// stale entry is detected by re-checking the full key and the variant's
// tile table, counted as tuner_cache.corrupt, and silently re-tuned.
//
// What is searched: the micro tile (MR x NR) from the active variant's
// registered set, and the macro blocking (MC, NC). What is NOT searched:
// KC — the K-block extent is the one blocking parameter that changes the
// floating-point summation tree, so it stays pinned (gemm.cpp kBlockK) to
// keep every tuned configuration bit-identical to every other. Cold tune
// and warm replay therefore produce byte-identical results by
// construction; the cached winner only has to reproduce the *speed*.
//
// Shape classes bucket each GEMM dimension to a power of two (exact below
// 16), so e.g. every conv lowering of one layer across NAS trials shares
// an entry — the same redundancy-collapsing move as the schedule cache.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "tensor/kernels/microkernel.hpp"

namespace dcn::kernels {

/// One tuning decision. kc is carried for the cache format but is always
/// the driver's pinned K block (see file comment).
struct TileConfig {
  std::int64_t mr = 4;
  std::int64_t nr = 8;
  std::int64_t mc = 128;
  std::int64_t nc = 256;
  std::int64_t kc = 256;
};

struct TunerStats {
  std::int64_t memo_hits = 0;
  std::int64_t memo_misses = 0;
  std::int64_t disk_hits = 0;
  std::int64_t disk_misses = 0;
  std::int64_t corrupt_entries = 0;
  std::int64_t tuned = 0;
};

/// Measures one candidate on a class-representative problem; returns
/// milliseconds (lower is better). Provided by the GEMM driver so the
/// tuner stays free of packing/blocking knowledge.
using MeasureFn = std::function<double(const TileConfig&)>;

class TileTuner {
 public:
  /// The process-wide tuner all kernel drivers consult.
  static TileTuner& global();

  /// The winning config for (variant, precision, shape class of m/n/k).
  /// precision is 'f' (fp32 sgemm) or 'q' (int8 qgemm). Consults memo,
  /// then disk, then tunes with `measure` over the candidate set (the
  /// variant's default tile is always candidate #0, so the winner is never
  /// measured slower than the default). When tuning is disabled the
  /// variant default is returned and nothing is counted or stored.
  ///
  /// A memo hit takes the tuner's lock once and builds no string: the memo
  /// is keyed by the variant's address plus the packed precision and shape
  /// classes, so `variant` must live as long as the process (registry
  /// variants do). The canonical string key is built only on a miss, for
  /// the disk tier.
  TileConfig choose(const KernelVariant& variant, char precision,
                    std::int64_t m, std::int64_t n, std::int64_t k,
                    const MeasureFn& measure);

  /// Canonical content key (exposed for tests and cache inspection).
  static std::string cache_key(const KernelVariant& variant, char precision,
                               std::int64_t m, std::int64_t n,
                               std::int64_t k);
  /// Path of the on-disk entry for a key (inside the active cache dir).
  std::string entry_path(const std::string& key);

  /// Enabled by default unless DCN_TUNER=off in the environment.
  void set_enabled(bool enabled);
  bool enabled();

  /// Override the cache directory ("" = resolve from environment again).
  /// Clears the in-memory memo so the new directory takes effect.
  void set_cache_dir(const std::string& dir);
  std::string cache_dir();

  /// Drop the in-memory memo (disk entries survive) — lets tests replay
  /// the warm-from-disk path inside one process.
  void clear_memory();

  TunerStats stats();
  void reset_stats();

  /// Force every sgemm selection to (mr, nr) when the active variant
  /// registers that tile (bench tile sweeps); 0,0 clears.
  void force_tile(std::int64_t mr, std::int64_t nr);

  /// RAII tile force for benches/tests.
  class ScopedForcedTile {
   public:
    ScopedForcedTile(std::int64_t mr, std::int64_t nr);
    ~ScopedForcedTile();
    ScopedForcedTile(const ScopedForcedTile&) = delete;
    ScopedForcedTile& operator=(const ScopedForcedTile&) = delete;
  };

 private:
  TileTuner();
  TileConfig tune(const std::string& key, const KernelVariant& variant,
                  char precision, std::int64_t m, std::int64_t n,
                  std::int64_t k, const MeasureFn& measure);
  bool load_entry(const std::string& key, const KernelVariant& variant,
                  char precision, TileConfig* config);
  void store_entry(const std::string& key, const TileConfig& config,
                   double best_ms);

  /// In-memory memo key: a registered variant and the packed
  /// (precision, m/n/k class) tuple that its cache_key spells out.
  struct MemoKey {
    const KernelVariant* variant;
    std::uint32_t shape;
    bool operator==(const MemoKey& o) const {
      return variant == o.variant && shape == o.shape;
    }
  };
  struct MemoKeyHash {
    std::size_t operator()(const MemoKey& key) const {
      return std::hash<const void*>{}(key.variant) ^
             (static_cast<std::size_t>(key.shape) * 0x9e3779b97f4a7c15ull);
    }
  };

  std::mutex mutex_;
  bool enabled_ = true;
  std::string dir_;
  std::unordered_map<MemoKey, TileConfig, MemoKeyHash> memo_;
  TunerStats stats_;
  std::int64_t forced_mr_ = 0;
  std::int64_t forced_nr_ = 0;
};

}  // namespace dcn::kernels
