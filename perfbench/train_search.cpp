// train-search: the paper's random multi-trial NAS over conv1 kernel,
// first SPP level and FC width, then accuracy-constrained selection. One
// trial (train + evaluate + fuse + IOS schedule + simgpu profile) per
// unit; a round is the whole seeded campaign, so every round does the
// same work whatever the seed. Set-up runs the campaign once: that is the
// warm-up of every trial architecture's shapes and the reference
// experiment record.
#include <algorithm>
#include <cstdio>

#include "core/rng.hpp"
#include "detect/sppnet.hpp"
#include "detect/trainer.hpp"
#include "geo/dataset.hpp"
#include "nas/experiment.hpp"
#include "nas/runner.hpp"
#include "nas/search_space.hpp"
#include "nas/selection.hpp"
#include "nas/strategy.hpp"
#include "simgpu/spec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dcn;

constexpr std::int64_t kPatch = 32;
constexpr std::int64_t kLatencyBatch = 1;
// The accuracy constraint of the selection: AP at least this share of the
// campaign's best AP. One-epoch models reach no fixed AP level for every
// seed (even AP > 0 failed for 1 of 56 seeds tried), so the constraint is
// relative to what the campaign reached.
constexpr double kApShareOfBest = 0.5;

class TrainSearchWorkload final : public Workload {
 public:
  explicit TrainSearchWorkload(const RunOptions& options) : options_(options) {
    samples_ = options.smoke ? 20 : 40;
  }

  const char* work_name() const override { return "trials"; }
  int threads() const override { return options_.threads; }

  void setup() override {
    geo::DatasetConfig data;
    data.seed = options_.seed;
    // Worlds are synthesized until the cap is reached, then trimmed to it:
    // every seed trains on the same number of patches.
    data.num_worlds = 8;
    data.max_samples = samples_;
    data.patch_size = kPatch;
    data.terrain.rows = data.terrain.cols = 192;
    // Crossings within 2 px of the patch center, close to the paper's
    // centered clips: after one epoch the box head then reaches IoU 0.5 on
    // some test positive for nearly every seed, so the AP constraint tells
    // trials apart. With the default 6 px jitter most trials read AP 0.
    data.positive_jitter = 2;
    {
      ScopedSpan span("geo.synthesize");
      dataset_ = geo::DrainageDataset::synthesize(data);
    }
    split_ = dataset_.split(0.8, 3);

    nas::SearchSpace space;
    space.conv1_kernels = {3, 5};
    space.spp_first_levels = {1, 2};
    space.fc_widths = {64};
    nas::RandomSearchStrategy strategy(space, options_.seed);
    while (const auto point = strategy.next()) campaign_.push_back(*point);

    runner_.input_size = kPatch;
    runner_.latency_batch = kLatencyBatch;
    runner_.verbose = false;

    reference_ = run_campaign(nullptr);
    reference_csv_ = nas::serialize_experiment(reference_);
  }

  RoundResult round(UnitRunner& runner) override {
    RoundResult result;
    const nas::TrialDatabase db = run_campaign(&runner, &result);
    const bool same = nas::serialize_experiment(db) == reference_csv_;
    if (!same) {
      std::fprintf(stderr, "train-search: experiment record changed\n");
      late_failures_ += result.units;
    }
    raw_rates_.push_back(static_cast<double>(result.units) / result.raw_s *
                         60.0);
    return result;
  }

  // Training, evaluation and the efficiency path are the layer kit's.
  void layer_probes() override {}

  std::string output_digest() const override {
    return std::to_string(digest(reference_csv_));
  }

  std::int64_t finish(MetricMap& e2e, MetricMap& layers) override {
    double best_ap = 0.0;
    for (const nas::Trial& t : reference_.trials()) {
      best_ap = std::max(best_ap, t.metrics.average_precision);
    }
    // select_constrained keeps AP > threshold; the margin makes it >=.
    const double threshold = kApShareOfBest * best_ap - 1e-9;
    const auto selected = nas::select_constrained(reference_, threshold);
    if (!selected || !(selected->metrics.average_precision > threshold)) {
      std::fprintf(stderr, "train-search: no trial meets AP >= %.4f\n",
                   kApShareOfBest * best_ap);
      return late_failures_ + 1;
    }
    // The campaign's mean IOS-scheduled simgpu latency: the same four
    // architectures for every seed. Which one the constraint selects
    // depends on near-chance APs and varies with the seed, so the
    // selection's latency is a per-layer figure.
    double latency_s = 0.0;
    for (const nas::Trial& t : reference_.trials()) {
      latency_s += t.metrics.optimized_latency;
    }
    latency_s /= static_cast<double>(reference_.size());
    e2e["virtual_latency"] = latency_s * 1e3;
    e2e["virtual_rate"] = static_cast<double>(kLatencyBatch) / latency_s;
    layers["nas.selected_ap"] = selected->metrics.average_precision;
    layers["nas.selected_latency_ms"] =
        selected->metrics.optimized_latency * 1e3;

    std::int64_t feasible = 0;
    for (const nas::Trial& t : reference_.trials()) {
      if (t.metrics.average_precision > threshold) ++feasible;
    }
    layers["nas.feasible_share"] =
        static_cast<double>(feasible) /
        static_cast<double>(reference_.size());
    layers["nas.failed_trials"] =
        static_cast<double>(reference_.num_failed());
    layers["host.raw_trials_per_min"] = median(raw_rates_);
    if (!train_samples_per_s_.empty()) {
      layers["detect.train_samples_per_s"] = median(train_samples_per_s_);
    }
    std::fprintf(stderr,
                 "train-search: %zu trials on %zu patches, constraint AP >= "
                 "%.4f, selected trial %d [%s] AP %.4f, "
                 "virtual_selected_latency_ms %.4f\n",
                 reference_.size(), dataset_.size(), kApShareOfBest * best_ap,
                 selected->index, selected->point.to_string().c_str(),
                 selected->metrics.average_precision,
                 selected->metrics.optimized_latency * 1e3);
    return late_failures_;
  }

 private:
  nas::Trial run_trial(int index, const nas::SearchPoint& point) {
    const detect::SppNetConfig config = nas::materialize(point);
    Rng rng(options_.seed + 7);
    detect::SppNet model(config, rng);
    detect::TrainConfig train;
    train.epochs = 1;
    train.verbose = false;
    train.jobs = options_.threads;
    nas::Trial trial;
    trial.index = index;
    trial.point = point;
    detect::TrainHistory history;
    {
      const double t0 = now_seconds();
      ScopedSpan span("detect.train_detector");
      history = detect::train_detector(model, dataset_, split_, train);
      train_samples_per_s_.push_back(
          static_cast<double>(split_.train.size()) /
          (now_seconds() - t0));
    }
    {
      ScopedSpan span("nas.profile_architecture");
      trial.metrics = nas::profile_architecture(config, runner_, index, 1);
    }
    trial.metrics.average_precision = history.final_eval.average_precision;
    return trial;
  }

  nas::TrialDatabase run_campaign(UnitRunner* runner,
                                  RoundResult* result = nullptr) {
    nas::TrialDatabase db;
    for (std::size_t i = 0; i < campaign_.size(); ++i) {
      const int index = static_cast<int>(i);
      if (runner == nullptr) {
        ScopedSpan span("nas.trial");
        db.add(run_trial(index, campaign_[i]));
        continue;
      }
      nas::Trial trial;
      const UnitSample s = runner->run(
          "nas.trial", [&] { trial = run_trial(index, campaign_[i]); },
          [] { return true; });
      db.add(trial);
      result->scaled_s += s.scaled_s;
      result->raw_s += s.raw_s;
      result->units += 1;
      result->work += 1.0;
    }
    return db;
  }

  RunOptions options_;
  int samples_ = 0;
  geo::DrainageDataset dataset_;
  geo::Split split_;
  std::vector<nas::SearchPoint> campaign_;
  nas::RunnerConfig runner_;
  nas::TrialDatabase reference_;
  std::string reference_csv_;
  std::int64_t late_failures_ = 0;
  std::vector<double> raw_rates_;
  std::vector<double> train_samples_per_s_;
};

}  // namespace

std::unique_ptr<Workload> make_train_search(const RunOptions& options) {
  return std::make_unique<TrainSearchWorkload>(options);
}

}  // namespace perfbench
