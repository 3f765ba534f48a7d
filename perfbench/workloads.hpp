// The benchmark's three workloads. Each builds its inputs from the seed in
// setup(), then repeats rounds of timed units until the run's time is up.
//
//   scan          the production cascade: int8 screener + SPP-Net #2 over
//                 one 2048^2 watershed per unit (tensor engine, forward only)
//   train-search  random multi-trial NAS, one trial per unit (training
//                 shapes, backward + SGD, IOS DP, simgpu profiling)
//   serve-sim     mixed replica + pipeline fleet under chaos, one
//                 discrete-event simulation per unit (no tensor engine)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Tensor-engine threads (also the probe's thread count).
  int threads = 1;
  /// Short inputs for the smoke test; never used for measurements.
  bool smoke = false;
};

/// What one round contributed: units run and the work they did, in the
/// workload's own unit (tiles, trials or simulated requests).
struct RoundResult {
  double scaled_s = 0.0;
  double raw_s = 0.0;
  std::int64_t units = 0;
  double work = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first timed unit, including a warm-up that
  /// executes every shape a timed unit will use.
  virtual void setup() = 0;
  /// One round of timed units. Every round does the same work.
  virtual RoundResult round(UnitRunner& runner) = 0;
  /// Calls into single layers, for the per-layer numbers of a traced run.
  virtual void layer_probes() = 0;
  /// Checks that need the whole run (returns extra failed units), then
  /// fills the exact end-to-end metrics and this workload's layer values.
  virtual std::int64_t finish(MetricMap& end_to_end, MetricMap& layers) = 0;
  /// Digest of the outputs every run of this seed must reproduce.
  virtual std::string output_digest() const = 0;
  /// Name of the unit of work, for the human-readable summary.
  virtual const char* work_name() const = 0;
  /// Threads the workload's host work runs on.
  virtual int threads() const = 0;
};

std::unique_ptr<Workload> make_scan(const RunOptions& options);
std::unique_ptr<Workload> make_train_search(const RunOptions& options);
std::unique_ptr<Workload> make_serve_sim(const RunOptions& options);

/// Fixed, seeded calls into every layer (layer_kit.cpp), run for each span
/// name `missing` reports the traced run has no samples of.
void run_layer_kit(std::uint64_t seed,
                   const std::function<bool(const char*)>& missing);

}  // namespace perfbench
