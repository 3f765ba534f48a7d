// Resource-aware neural architecture search (the paper's Figure-5 loop).
//
// Random multi-trial search over the §4.2 space; each sampled architecture
// is trained on the synthetic drainage dataset (the FunctionalEvaluator),
// timed under its IOS-optimized schedule on the simulated A5500, and the
// final model is selected by maximizing throughput subject to the accuracy
// constraint a(n) > A (§5.4). Trial results are exported as CSV.
#include <cstdio>
#include <fstream>
#include <memory>

#include "core/error.hpp"

#include "core/cli.hpp"
#include "core/logging.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "detect/calibration.hpp"
#include "detect/trainer.hpp"
#include "geo/dataset.hpp"
#include "graph/numeric.hpp"
#include "nas/experiment.hpp"
#include "nas/runner.hpp"
#include "nas/selection.hpp"

int main(int argc, char** argv) {
  using namespace dcn;
  CliFlags flags("nas_search", "accuracy-constrained NAS for SPP-Net");
  flags.add_int("trials", 6, "number of NAS trials");
  flags.add_int("epochs", 10, "training epochs per trial");
  flags.add_int("patch", 40, "patch size for trial training");
  flags.add_double("threshold", 0.5, "accuracy constraint A (AP must exceed)");
  flags.add_int("seed", 2023, "search + data seed");
  flags.add_string("strategy", "random", "random | evolution | grid");
  flags.add_string("csv", "nas_trials.csv", "trial export path");
  flags.add_string("experiment", "nas_experiment.txt",
                   "experiment record (reloadable via nas::load_experiment)");
  flags.add_string("faults", "",
                   "fault plan, e.g. 'launch:p=0.05;memcpy_slow:at=3' "
                   "(empty = no injection)");
  flags.add_int("fault-seed", 2023, "fault injector seed");
  flags.add_int("trial-retries", 1,
                "extra whole-trial attempts after a retryable fault");
  flags.add_string("checkpoint", "",
                   "checkpoint CSV path (enables periodic checkpointing)");
  flags.add_bool("resume", false,
                 "resume the campaign from --checkpoint if it exists");
  flags.add_int("jobs", 1,
                "worker threads evaluating trials concurrently (random/grid "
                "stay byte-identical to --jobs 1)");
  flags.add_bool("int8", false,
                 "expand selection over {fp32, int8} deployments "
                 "(post-training quantization)");
  flags.add_string("selection-csv", "nas_selection.csv",
                   "precision-selection export path (with --int8)");
  if (!flags.parse(argc, argv)) return 0;

  // Shared dataset across trials (as the paper trains every candidate on
  // the same samples).
  geo::DatasetConfig data_config;
  data_config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  data_config.patch_size = flags.get_int("patch");
  data_config.terrain.rows = data_config.terrain.cols = 512;
  const auto dataset = geo::DrainageDataset::synthesize(data_config);
  const geo::Split split = dataset.split(0.8, 3);
  std::printf("dataset: %zu patches (%zu positive)\n", dataset.size(),
              dataset.num_positives());

  // The FunctionalEvaluator: real (reduced-schedule) training.
  const int epochs = static_cast<int>(flags.get_int("epochs"));
  nas::Evaluator evaluator = [&](const detect::SppNetConfig& config) {
    Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")) + 7);
    detect::SppNet model(config, rng);
    detect::TrainConfig train_config;
    train_config.epochs = epochs;
    train_config.verbose = false;
    const auto history =
        detect::train_detector(model, dataset, split, train_config);
    return history.final_eval.average_precision;
  };

  nas::SearchSpace space;  // the paper's §4.2 space
  std::unique_ptr<nas::ExplorationStrategy> strategy;
  const std::string strategy_name = flags.get_string("strategy");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  if (strategy_name == "random") {
    strategy = std::make_unique<nas::RandomSearchStrategy>(space, seed);
  } else if (strategy_name == "evolution") {
    strategy = std::make_unique<nas::EvolutionStrategy>(space, seed);
  } else if (strategy_name == "grid") {
    strategy = std::make_unique<nas::GridSearchStrategy>(space);
  } else {
    throw ConfigError("unknown --strategy '" + strategy_name + "'");
  }
  nas::RunnerConfig runner_config;
  runner_config.max_trials = static_cast<int>(flags.get_int("trials"));
  runner_config.input_size = data_config.patch_size;
  runner_config.faults = simgpu::FaultPlan::parse(
      flags.get_string("faults"),
      static_cast<std::uint64_t>(flags.get_int("fault-seed")));
  runner_config.trial_retries =
      static_cast<int>(flags.get_int("trial-retries"));
  runner_config.checkpoint_path = flags.get_string("checkpoint");
  runner_config.jobs = static_cast<int>(flags.get_int("jobs"));
  if (runner_config.jobs > 1) set_num_threads(1);
  nas::TrialDatabase resume_from;
  if (flags.get_bool("resume") && !runner_config.checkpoint_path.empty()) {
    resume_from = nas::load_checkpoint(runner_config.checkpoint_path);
    if (resume_from.size() > 0) {
      std::printf("resuming from %s: %zu completed trial(s)\n",
                  runner_config.checkpoint_path.c_str(), resume_from.size());
    }
  }
  const nas::TrialDatabase db =
      nas::run_multi_trial(*strategy, evaluator, runner_config, resume_from);
  if (db.num_failed() > 0) {
    std::printf("%zu trial(s) failed and were excluded from selection\n",
                db.num_failed());
  }

  TextTable table({"Trial", "Architecture", "AP", "Optimized latency",
                   "Throughput"});
  for (const nas::Trial& t : db.trials()) {
    table.add_row({std::to_string(t.index), t.point.to_string(),
                   format_percent(t.metrics.average_precision),
                   format_ms(t.metrics.optimized_latency * 1e3),
                   format_double(t.metrics.throughput, 0) + " img/s"});
  }
  std::printf("\n%s", table.to_string().c_str());

  const double threshold = flags.get_double("threshold");
  const auto best = nas::select_constrained(db, threshold);
  if (best) {
    std::printf(
        "\nselected (maximize e(n) s.t. a(n) > %.2f): trial %d [%s]\n"
        "  AP %s, %s per image, %.0f img/s\n",
        threshold, best->index, best->point.to_string().c_str(),
        format_percent(best->metrics.average_precision).c_str(),
        format_ms(best->metrics.optimized_latency * 1e3).c_str(),
        best->metrics.throughput);
  } else {
    std::printf("\nno trial satisfies AP > %.2f — rerun with more trials or "
                "epochs, or lower --threshold\n",
                threshold);
  }

  if (flags.get_bool("int8")) {
    // Expand every successful trial into {fp32, int8} deployment options:
    // re-profile the graph with int8 kernel descriptors (and an int8-aware
    // IOS schedule), re-train the float model with the evaluator's seed,
    // quantize it on a seeded calibration split, and re-score AP.
    nas::RunnerConfig int8_config = runner_config;
    int8_config.precision = simgpu::Precision::kInt8;
    int8_config.verbose = false;
    const nas::QuantizeEvaluator quantize = [&](const nas::Trial& trial) {
      const detect::SppNetConfig model_config = nas::materialize(trial.point);
      nas::TrialMetrics metrics = nas::profile_architecture(
          model_config, int8_config, trial.index, 1);
      Rng rng(seed + 7);  // reproduces the evaluator's trained weights
      detect::SppNet model(model_config, rng);
      detect::TrainConfig train_config;
      train_config.epochs = epochs;
      train_config.verbose = false;
      (void)detect::train_detector(model, dataset, split, train_config);
      std::vector<std::size_t> calibration;
      for (const std::int64_t i : detect::calibration_split(
               static_cast<std::int64_t>(split.train.size()), 8, seed)) {
        calibration.push_back(split.train[static_cast<std::size_t>(i)]);
      }
      const auto quantized = graph::quantize_sppnet(
          model, dataset.make_batch(calibration).images);
      metrics.average_precision =
          detect::evaluate_detector(*quantized, dataset, split.test)
              .average_precision;
      return metrics;
    };
    const auto candidates = nas::expand_precisions(db, quantize);
    const auto chosen = nas::select_constrained_precision(candidates,
                                                          threshold);
    if (chosen) {
      std::printf(
          "\nprecision-expanded selection (AP > %.2f): trial %d [%s] @ %s\n"
          "  AP %s, %s per image, %.0f img/s\n",
          threshold, chosen->trial.index,
          chosen->trial.point.to_string().c_str(),
          simgpu::precision_name(chosen->precision),
          format_percent(chosen->metrics.average_precision).c_str(),
          format_ms(chosen->metrics.optimized_latency * 1e3).c_str(),
          chosen->metrics.throughput);
    } else {
      std::printf("\nno (model, precision) pair satisfies AP > %.2f\n",
                  threshold);
    }
    std::ofstream selection_csv(flags.get_string("selection-csv"));
    selection_csv << nas::precision_selection_csv(candidates, chosen);
    std::printf("precision selection exported to %s\n",
                flags.get_string("selection-csv").c_str());
  }

  std::printf("\nPareto front (accuracy vs throughput):\n");
  for (const nas::Trial& t : nas::pareto_front(db)) {
    std::printf("  AP %s @ %.0f img/s  [%s]\n",
                format_percent(t.metrics.average_precision).c_str(),
                t.metrics.throughput, t.point.to_string().c_str());
  }

  std::ofstream csv(flags.get_string("csv"));
  csv << db.to_csv();
  nas::save_experiment(db, flags.get_string("experiment"));
  std::printf("\ntrials exported to %s; experiment record in %s\n",
              flags.get_string("csv").c_str(),
              flags.get_string("experiment").c_str());
  return 0;
}
