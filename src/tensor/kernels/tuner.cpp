#include "tensor/kernels/tuner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "core/logging.hpp"
#include "profiler/counters.hpp"

namespace dcn::kernels {
namespace {

constexpr char kMagic[] = "dcn-tile-cache-v1";

// Pinned K block; mirrors gemm.cpp's kBlockK (the one blocking parameter
// the determinism contract forbids tuning — see tuner.hpp).
constexpr std::int64_t kPinnedKc = 256;

// qgemm searches its accumulator row-tile only.
constexpr std::int64_t kQgemmRowTiles[] = {2, 4, 8};

// Shape-class bucket: exact up to 16, then the next power of two. Keys the
// cache by problem *class* so structurally identical GEMMs across layers,
// trials, and batches share one tuning.
std::int64_t class_of(std::int64_t d) {
  if (d <= 0) return 0;
  if (d <= 16) return d;
  std::int64_t c = 16;
  while (c < d) c <<= 1;
  return c;
}

// class_of(d) as one byte: the exact value up to 16, else 16 + log2 of the
// power of two (at most 16 + 63).
std::uint32_t class_code(std::int64_t d) {
  const std::int64_t c = class_of(d);
  if (c <= 16) return static_cast<std::uint32_t>(c);
  std::uint32_t log2 = 0;
  while ((std::int64_t{1} << log2) < c) ++log2;
  return 16 + log2;
}

// The (precision, m/n/k class) part of cache_key, packed one byte each.
std::uint32_t shape_code(char precision, std::int64_t m, std::int64_t n,
                         std::int64_t k) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(precision))
             << 24 |
         class_code(m) << 16 | class_code(n) << 8 | class_code(k);
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

bool env_disables_tuner() {
  const char* v = std::getenv("DCN_TUNER");
  return v != nullptr &&
         (std::string(v) == "off" || std::string(v) == "0");
}

std::string resolve_cache_dir() {
  if (const char* dir = std::getenv("DCN_TUNER_CACHE")) {
    if (*dir != '\0') return dir;
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME")) {
    if (*xdg != '\0') return std::string(xdg) + "/dcn-tuner";
  }
  if (const char* home = std::getenv("HOME")) {
    if (*home != '\0') return std::string(home) + "/.cache/dcn-tuner";
  }
  return "/tmp/dcn-tuner";
}

bool valid_for(const KernelVariant& variant, char precision,
               const TileConfig& c) {
  if (precision == 'q') {
    for (const std::int64_t mr : kQgemmRowTiles) {
      if (c.mr == mr) return true;
    }
    return false;
  }
  return variant.find_sgemm(c.mr, c.nr) != nullptr && c.mc >= c.mr &&
         c.nc >= c.nr && c.kc == kPinnedKc;
}

TileConfig default_config(const KernelVariant& variant, char precision) {
  TileConfig c;
  if (precision == 'q') {
    c.mr = 4;  // the historical fixed kQMr
    c.nr = 0;
    c.mc = 0;
    c.nc = 0;
  } else {
    const SgemmMicroKernel& k = variant.default_sgemm();
    c.mr = k.mr;
    c.nr = k.nr;
    c.mc = 128;
    c.nc = 256;
  }
  c.kc = kPinnedKc;
  return c;
}

std::vector<TileConfig> candidates(const KernelVariant& variant,
                                   char precision) {
  std::vector<TileConfig> out;
  if (precision == 'q') {
    for (const std::int64_t mr : kQgemmRowTiles) {
      TileConfig c = default_config(variant, 'q');
      c.mr = mr;
      // Default first so the winner is never measured slower than it.
      if (mr == 4) {
        out.insert(out.begin(), c);
      } else {
        out.push_back(c);
      }
    }
    return out;
  }
  // Macro-blocking variants per tile: the square-ish default plus a
  // wide-N and a tall-M split. These move only the tile visit order, so
  // every candidate is bit-identical — pure scheduling search.
  constexpr std::int64_t kBlockings[][2] = {{128, 256}, {64, 512}, {256, 128}};
  const TileConfig def = default_config(variant, precision);
  out.push_back(def);
  for (const SgemmMicroKernel& k : variant.sgemm) {
    for (const auto& b : kBlockings) {
      TileConfig c;
      c.mr = k.mr;
      c.nr = k.nr;
      c.mc = std::max(b[0], k.mr);
      c.nc = std::max(b[1], k.nr);
      c.kc = kPinnedKc;
      if (c.mr == def.mr && c.nr == def.nr && c.mc == def.mc &&
          c.nc == def.nc) {
        continue;  // already candidate #0
      }
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

TileTuner::TileTuner() {
  enabled_ = !env_disables_tuner();
  dir_ = resolve_cache_dir();
}

TileTuner& TileTuner::global() {
  static TileTuner tuner;
  return tuner;
}

std::string TileTuner::cache_key(const KernelVariant& variant, char precision,
                                 std::int64_t m, std::int64_t n,
                                 std::int64_t k) {
  std::ostringstream os;
  os << "tile:v1:" << variant.name << ':' << precision << ":m"
     << class_of(m) << ":n" << class_of(n) << ":k" << class_of(k);
  // The registered tile table is part of the content: a rebuilt binary
  // offering different tiles must not replay a winner it cannot run.
  os << ":tiles";
  for (const SgemmMicroKernel& t : variant.sgemm) {
    os << ',' << t.mr << 'x' << t.nr;
  }
  return os.str();
}

std::string TileTuner::entry_path(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dir_.empty()) return "";
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.tile",
                static_cast<unsigned long long>(fnv1a64(key)));
  return dir_ + "/" + name;
}

TileConfig TileTuner::choose(const KernelVariant& variant, char precision,
                             std::int64_t m, std::int64_t n, std::int64_t k,
                             const MeasureFn& measure) {
  const MemoKey memo_key{&variant, shape_code(precision, m, n, k)};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_) return default_config(variant, precision);
    if (forced_mr_ > 0 && precision == 'f') {
      const SgemmMicroKernel* forced =
          variant.find_sgemm(forced_mr_, forced_nr_);
      if (forced != nullptr) {
        TileConfig c = default_config(variant, precision);
        c.mr = forced->mr;
        c.nr = forced->nr;
        c.mc = std::max<std::int64_t>(128, c.mr);
        c.nc = std::max<std::int64_t>(256, c.nr);
        return c;
      }
    }
    const auto it = memo_.find(memo_key);
    if (it != memo_.end()) {
      ++stats_.memo_hits;
      profiler::counter_add("tuner_cache.hit");
      return it->second;
    }
    ++stats_.memo_misses;
  }
  profiler::counter_add("tuner_cache.miss");

  const std::string key = cache_key(variant, precision, m, n, k);
  TileConfig config;
  if (!load_entry(key, variant, precision, &config)) {
    config = tune(key, variant, precision, m, n, k, measure);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  memo_.emplace(memo_key, config);
  return config;
}

TileConfig TileTuner::tune(const std::string& key,
                           const KernelVariant& variant, char precision,
                           std::int64_t m, std::int64_t n, std::int64_t k,
                           const MeasureFn& measure) {
  const std::vector<TileConfig> cands = candidates(variant, precision);
  // Three interleaved passes with a per-candidate min: slow clock/thermal
  // drift during the tune hits every candidate alike instead of favoring
  // whichever happened to be measured during a fast stretch.
  std::vector<double> ms(cands.size(), 1.0e30);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < cands.size(); ++i) {
      ms[i] = std::min(ms[i], measure(cands[i]));
    }
  }
  // Candidate #0 (the variant default) holds the title unless a challenger
  // is clearly — not just measurably — faster; the 10% hysteresis keeps
  // probe noise from dethroning the default on a near-tie, so a tuned
  // configuration is never the loser of a coin flip. Real wins (a better
  // row tile for a skinny FC shape, a wider tile for a wide conv lowering)
  // clear this bar comfortably; the few percent a near-tie could offer is
  // noise-sized on shared hosts anyway.
  std::size_t best_i = 0;
  for (std::size_t i = 1; i < cands.size(); ++i) {
    if (ms[i] < 0.90 * ms[best_i]) best_i = i;
  }
  const TileConfig best = cands[best_i];
  const double best_ms = ms[best_i];
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.tuned;
  }
  profiler::counter_add("tuner.tuned");
  DCN_LOG_DEBUG << "tuned " << variant.name << '/' << precision << ' ' << m
                << 'x' << n << 'x' << k << " -> " << best.mr << 'x' << best.nr
                << " blocks " << best.mc << 'x' << best.nc << " ("
                << best_ms << " ms)";
  store_entry(key, best, best_ms);
  return best;
}

bool TileTuner::load_entry(const std::string& key,
                           const KernelVariant& variant, char precision,
                           TileConfig* config) {
  const std::string path = entry_path(key);
  if (path.empty()) return false;
  std::ifstream in(path);
  if (!in.is_open()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_misses;
    profiler::counter_add("tuner_cache.disk_miss");
    return false;
  }
  std::string magic, line;
  std::getline(in, magic);
  TileConfig c;
  std::string stored_key;
  bool have[5] = {};
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string field = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    char* end = nullptr;
    const std::int64_t num = std::strtoll(value.c_str(), &end, 10);
    if (field == "key") {
      stored_key = value;
    } else if (field == "mr" && end != value.c_str()) {
      c.mr = num;
      have[0] = true;
    } else if (field == "nr" && end != value.c_str()) {
      c.nr = num;
      have[1] = true;
    } else if (field == "mc" && end != value.c_str()) {
      c.mc = num;
      have[2] = true;
    } else if (field == "nc" && end != value.c_str()) {
      c.nc = num;
      have[3] = true;
    } else if (field == "kc" && end != value.c_str()) {
      c.kc = num;
      have[4] = true;
    }
  }
  const bool complete = have[0] && have[1] && have[2] && have[3] && have[4];
  // Content addressing is the integrity check: the magic, the *full* key
  // (not just its hash — collisions and truncation both surface here), and
  // the tile's presence in the running binary's variant table must all
  // agree, or the entry is corrupt and gets re-tuned.
  if (magic != kMagic || stored_key != key || !complete ||
      (precision == 'q' ? !valid_for(variant, 'q', c)
                        : !valid_for(variant, precision, c))) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.corrupt_entries;
    }
    profiler::counter_add("tuner_cache.corrupt");
    DCN_LOG_WARN << "tuner cache entry " << path
                 << " is corrupt or stale; re-tuning";
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_hits;
  }
  profiler::counter_add("tuner_cache.disk_hit");
  *config = c;
  return true;
}

void TileTuner::store_entry(const std::string& key, const TileConfig& config,
                            double best_ms) {
  const std::string path = entry_path(key);
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  if (ec) return;  // cache is best-effort; compute is already done
  // Writer-unique tmp name: concurrent processes tuning the same class must
  // not interleave writes into one tmp file (the rename is atomic; a torn
  // tmp would merely be detected as corrupt, but avoid it anyway).
  std::size_t writer =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff;
#ifdef __unix__
  writer ^= static_cast<std::size_t>(::getpid()) << 16;
#endif
  const std::string tmp = path + ".tmp" + std::to_string(writer);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return;
    out << kMagic << '\n';
    out << "key=" << key << '\n';
    out << "mr=" << config.mr << '\n';
    out << "nr=" << config.nr << '\n';
    out << "mc=" << config.mc << '\n';
    out << "nc=" << config.nc << '\n';
    out << "kc=" << config.kc << '\n';
    out << "ms=" << best_ms << '\n';
  }
  // Atomic publish: a concurrent reader sees the old entry or the new one,
  // never a torn write.
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

void TileTuner::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = enabled;
}

bool TileTuner::enabled() {
  std::lock_guard<std::mutex> lock(mutex_);
  return enabled_;
}

void TileTuner::set_cache_dir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  dir_ = dir.empty() ? resolve_cache_dir() : dir;
  memo_.clear();
}

std::string TileTuner::cache_dir() {
  std::lock_guard<std::mutex> lock(mutex_);
  return dir_;
}

void TileTuner::clear_memory() {
  std::lock_guard<std::mutex> lock(mutex_);
  memo_.clear();
}

TunerStats TileTuner::stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void TileTuner::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = TunerStats{};
}

void TileTuner::force_tile(std::int64_t mr, std::int64_t nr) {
  std::lock_guard<std::mutex> lock(mutex_);
  forced_mr_ = mr;
  forced_nr_ = nr;
}

TileTuner::ScopedForcedTile::ScopedForcedTile(std::int64_t mr,
                                              std::int64_t nr) {
  TileTuner::global().force_tile(mr, nr);
}

TileTuner::ScopedForcedTile::~ScopedForcedTile() {
  TileTuner::global().force_tile(0, 0);
}

}  // namespace dcn::kernels
