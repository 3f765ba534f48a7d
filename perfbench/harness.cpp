#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "tensor/kernels/tuner.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<std::int64_t>(values.size());
  if (ld == 1) {
    q.q1 = q.q2 = q.q3 = values[0];
    return q;
  }
  const std::int64_t m = ld + 1;
  double out[3] = {};
  for (std::int64_t i = 1; i <= 3; ++i) {
    std::int64_t j = i * m / 4;
    j = std::clamp<std::int64_t>(j, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    out[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.q2 = out[1];
  q.q3 = out[2];
  return q;
}

double percentile(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

TailSummary tail_summary(std::vector<double> values) {
  TailSummary s;
  s.n = static_cast<std::int64_t>(values.size());
  if (values.empty()) return s;
  s.p50 = percentile(values, 50.0);
  s.tail = s.p50;
  for (const double pct : {90.0, 99.0, 99.9}) {
    // Samples strictly beyond the nearest-rank pct-th value.
    const auto rank = static_cast<std::int64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(s.n)));
    if (s.n - rank < 10) break;
    s.tail_pct = pct;
    s.tail = percentile(values, pct);
  }
  return s;
}

double scale_to_reference(double raw, double nominal_ms, double probe_ms) {
  return probe_ms > 0.0 ? raw * nominal_ms / probe_ms : raw;
}

namespace {

std::atomic<double> g_probe_sink{0.0};

// The probe's fixed work, in three parts that follow what a neighbour on
// a shared host takes away: a dependent scalar multiply-add chain (core
// clock and share of the core), a small dense matrix product the compiler
// vectorizes (SIMD units and L1/L2), and a sum over a buffer larger than
// L2 (memory bandwidth).
struct ProbeBuffers {
  std::vector<float> chain = std::vector<float>(16 * 1024, 1.0f);
  std::vector<float> a = std::vector<float>(64 * 64, 0.5f);
  std::vector<float> b = std::vector<float>(64 * 64, 0.25f);
  std::vector<float> c = std::vector<float>(64 * 64, 0.0f);
  std::vector<float> stream = std::vector<float>(2 * 1024 * 1024, 1.0f);
};

double probe_kernel(ProbeBuffers& p) {
  float acc = 0.0f;
  for (int pass = 0; pass < 8; ++pass) {
    for (float& v : p.chain) {
      v = v * 0.999f + acc * 1.0e-7f;
      acc += v;
    }
  }
  constexpr int n = 64;
  for (int rep = 0; rep < 8; ++rep) {
    std::fill(p.c.begin(), p.c.end(), 0.0f);
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        const float aik = p.a[static_cast<std::size_t>(i * n + k)];
        for (int j = 0; j < n; ++j) {
          p.c[static_cast<std::size_t>(i * n + j)] +=
              aik * p.b[static_cast<std::size_t>(k * n + j)];
        }
      }
    }
    acc += p.c[static_cast<std::size_t>(rep)];
  }
  for (int pass = 0; pass < 2; ++pass) {
    float sum = 0.0f;
    for (const float v : p.stream) sum += v;
    acc += sum * 1.0e-9f;
  }
  return static_cast<double>(acc);
}

}  // namespace

double run_probe_ms(int threads) {
  threads = std::max(threads, 1);
  std::vector<ProbeBuffers> buffers(static_cast<std::size_t>(threads));
  std::vector<double> readings;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_seconds();
    std::vector<std::thread> workers;
    for (int t = 1; t < threads; ++t) {
      workers.emplace_back([&buffers, t] {
        g_probe_sink.store(probe_kernel(buffers[static_cast<std::size_t>(t)]),
                           std::memory_order_relaxed);
      });
    }
    g_probe_sink.store(probe_kernel(buffers[0]), std::memory_order_relaxed);
    for (std::thread& w : workers) w.join();
    readings.push_back((now_seconds() - t0) * 1e3);
  }
  return median(readings);
}

// --- Tracer ------------------------------------------------------------------

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::begin(const std::string& name) {
  Span span;
  span.name = name;
  span.start_us = now_seconds() * 1e6;
  span.end_us = span.start_us;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.unit = unit_;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_seconds() * 1e6;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name,
                                      double scale) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_us - s.start_us) * scale);
  }
  return out;
}

std::string Tracer::self_time_table() const {
  struct Row {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::int64_t count = 0;
  };
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] +=
          (s.end_us - s.start_us) * 1e-3;
    }
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms = (spans_[i].end_us - spans_[i].start_us) * 1e-3;
    Row& row = rows[spans_[i].name];
    row.total_ms += ms;
    row.self_ms += ms - child_ms[i];
    ++row.count;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::string out = "span                              count    total_ms     self_ms\n";
  char line[160];
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof(line), "%-32s %6lld %11.2f %11.2f\n",
                  name.c_str(), static_cast<long long>(row.count),
                  row.total_ms, row.self_ms);
    out += line;
  }
  return out;
}

std::string Tracer::chrome_trace(const std::string& metadata) const {
  std::string out = "{\"otherData\": " + metadata + ",\n\"traceEvents\": [\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"unit\": %lld}}",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  static_cast<long long>(s.unit + 1), s.start_us,
                  s.end_us - s.start_us, i, s.parent,
                  static_cast<long long>(s.unit));
    out += line;
  }
  out += "\n]}\n";
  return out;
}

// --- Units ---------------------------------------------------------------------

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double UnitRunner::probe() {
  ScopedSpan span("host.ref_probe");
  const double ms = run_probe_ms(threads_);
  probes_.push_back(ms);
  return ms;
}

UnitSample UnitRunner::run(const std::string& name,
                           const std::function<void()>& work,
                           const std::function<bool()>& check) {
  auto& tuner = dcn::kernels::TileTuner::global();
  if (last_probe_ms_ < 0.0) last_probe_ms_ = probe();
  const double before_ms = last_probe_ms_;
  UnitSample sample;
  tracer().set_unit(attempted_);
  ++attempted_;
  const std::int64_t tuned_before = tuner.stats().tuned;
  const double t0 = now_seconds();
  try {
    ScopedSpan span(name.c_str());
    work();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unit %s failed: %s\n", name.c_str(), e.what());
    sample.ok = false;
  }
  sample.raw_s = now_seconds() - t0;
  const std::int64_t tuned_during = tuner.stats().tuned - tuned_before;
  tracer().set_unit(-1);
  if (tuned_during > 0) {
    std::fprintf(stderr, "unit %s tuned %lld tile(s) inside the timed region\n",
                 name.c_str(), static_cast<long long>(tuned_during));
    sample.ok = false;
  }
  if (sample.ok && !check()) sample.ok = false;
  last_probe_ms_ = probe();
  sample.probe_ms = 0.5 * (before_ms + last_probe_ms_);
  sample.scaled_s =
      scale_to_reference(sample.raw_s, kProbeNominalMs, sample.probe_ms);
  if (!sample.ok) ++failed_;
  return sample;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void put_tail(MetricMap& metrics, const std::string& base,
              const std::vector<double>& samples) {
  const TailSummary s = tail_summary(samples);
  metrics[base + ".p50"] = s.p50;
  metrics[base + ".tail"] = s.tail;
  metrics[base + ".tail_pct"] = s.tail_pct;
  metrics[base + ".n"] = static_cast<double>(s.n);
}

std::uint64_t digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
