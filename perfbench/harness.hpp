// Measurement harness of the repository benchmark: statistics, the
// host-speed reference probe, the span tracer and the timed-unit loop.
//
// Nothing here calls into the program; the workloads (workloads.hpp) do.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// --- Statistics ------------------------------------------------------------

/// Median of `values` (mean of the middle pair for even counts); 0 if empty.
double median(std::vector<double> values);

/// First, second and third quartile with the "exclusive" method of
/// Python's statistics.quantiles(values, n=4). Needs at least 2 values;
/// with one value all three quartiles are that value.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// A timing distribution as the benchmark reports it: the median plus the
/// highest percentile of {90, 99, 99.9} that has at least ten samples
/// beyond it (tail_pct = 0 and tail = p50 when not even p90 qualifies),
/// with the sample count.
struct TailSummary {
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
  std::int64_t n = 0;
};
TailSummary tail_summary(std::vector<double> values);

/// Nearest-rank percentile (pct in (0, 100]) of a non-empty sample.
double percentile(std::vector<double> values, double pct);

/// A host time measured while the reference probe read `probe_ms`,
/// rescaled to what it would read on a host where the probe reads
/// `nominal_ms`: raw * nominal / measured. A slower host (probe above
/// nominal) therefore gets its time scaled down.
double scale_to_reference(double raw, double nominal_ms, double probe_ms);

// --- Host-speed reference --------------------------------------------------

/// Nominal probe time, fixed once: the median probe reading of the
/// reference host (4-vCPU x86-64 VM, gcc 12, RelWithDebInfo). Changing it
/// rescales every host metric, so it changes only together with a
/// re-measured baseline.
inline constexpr double kProbeNominalMs = 5.5;

/// Wall milliseconds of one fixed scalar floating-point loop run on
/// `threads` threads at once (each thread its own buffer). Owned by the
/// benchmark and calls nothing in the program; the median of three
/// back-to-back repetitions.
double run_probe_ms(int threads);

// --- Tracing ---------------------------------------------------------------

/// Spans recorded in the benchmark's own code around each public call it
/// times. Kept in memory; written as a chrome trace at exit. Disabled
/// tracers record nothing and cost one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::int64_t unit = -1;  // timed unit the span belongs to (-1 = none)
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  /// Unit id stamped on spans opened from now on (-1 = outside units).
  void set_unit(std::int64_t unit) { unit_ = unit; }

  int begin(const std::string& name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (same unit as `scale`: 1e-3 = ms, 1 = us, 1e-6 = s) of
  /// every closed span with this name.
  std::vector<double> durations(const std::string& name,
                                double scale) const;
  /// Per-name total and self time (span minus the time its children
  /// cover), rendered as a table sorted by self time.
  std::string self_time_table() const;
  /// Chrome trace-event JSON ("X" events, one tid per unit).
  std::string chrome_trace(const std::string& metadata) const;

 private:
  bool enabled_ = false;
  std::int64_t unit_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The tracer every workload records into.
Tracer& tracer();

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(tracer().enabled() ? tracer().begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer().end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// --- Timed units -----------------------------------------------------------

double now_seconds();

/// One timed unit as measured: raw host seconds, the adjacent probe
/// readings and the reference-scaled seconds.
struct UnitSample {
  double raw_s = 0.0;
  double probe_ms = 0.0;
  double scaled_s = 0.0;
  bool ok = true;
};

/// Runs units between probe readings. Each unit is timed alone; its probe
/// reading is the mean of the probes run just before and just after it.
/// A unit fails when it throws, when its check returns false, or when the
/// tile tuner tuned anything while it ran (set-up must have executed
/// every shape).
class UnitRunner {
 public:
  explicit UnitRunner(int probe_threads) : threads_(probe_threads) {}

  /// `work` is timed; `check` runs after the clock stops and returns
  /// whether the unit's outputs are correct.
  UnitSample run(const std::string& name, const std::function<void()>& work,
                 const std::function<bool()>& check);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<double>& probes() const { return probes_; }

 private:
  double probe();

  int threads_;
  double last_probe_ms_ = -1.0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<double> probes_;
};

/// Peak resident set size of this process, in megabytes.
double peak_rss_mb();

// --- Result ----------------------------------------------------------------

/// Named numbers a workload reports. Every workload reports every name the
/// benchmark declares; a layer the workload does not exercise reports 0.
using MetricMap = std::map<std::string, double>;

/// Adds `<base>.p50`, `<base>.tail`, `<base>.tail_pct` and `<base>.n`.
void put_tail(MetricMap& metrics, const std::string& base,
              const std::vector<double>& samples);

/// FNV-1a 64-bit digest, for byte-identity checks of program outputs.
std::uint64_t digest(const std::string& bytes);

}  // namespace perfbench
