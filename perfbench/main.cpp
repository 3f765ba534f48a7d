// Repository benchmark executable.
//
//   dcn_perfbench --workload <scan|train-search|serve-sim> --seed <n>
//                 --seconds <s> --trace <0|1> --run-dir <dir> [--smoke]
//
// Sets up the workload several times (each set-up from scratch, with its
// own empty tile-tuner cache under --run-dir) and reports the median
// set-up time, then runs rounds of timed units for --seconds. Every unit's
// host time is scaled to the reference host speed by the probe run before
// and after it. Prints one JSON object as the last line of stdout: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Human-readable tables go to stderr. Exits 1 on bad arguments or an
// unexpected error; incorrect outputs are reported through "correct".
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/logging.hpp"
#include "core/parallel.hpp"
#include "ios/schedule_cache.hpp"
#include "tensor/kernels/registry.hpp"
#include "tensor/kernels/tuner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string run_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || args.run_dir.empty() ||
      !(args.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: dcn_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --run-dir <dir> [--smoke]");
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunOptions& options) {
  if (name == "scan") return make_scan(options);
  if (name == "train-search") return make_train_search(options);
  if (name == "serve-sim") return make_serve_sim(options);
  throw std::invalid_argument("unknown workload " + name);
}

/// Share of the tuned entries in `dir` whose winner is not the active
/// variant's default tile (read from this run's own cache files).
double tuner_nondefault_share(const std::string& dir) {
  const auto& variant = dcn::kernels::KernelRegistry::global().active();
  std::int64_t entries = 0;
  std::int64_t nondefault = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".tile") continue;
    std::ifstream in(entry.path());
    std::string line;
    std::string key;
    std::int64_t mr = 0, nr = 0, mc = 0, nc = 0;
    while (std::getline(in, line)) {
      const auto eq = line.find('=');
      if (eq == std::string::npos) continue;
      const std::string field = line.substr(0, eq);
      const std::string value = line.substr(eq + 1);
      if (field == "key") key = value;
      if (field == "mr") mr = std::stoll(value);
      if (field == "nr") nr = std::stoll(value);
      if (field == "mc") mc = std::stoll(value);
      if (field == "nc") nc = std::stoll(value);
    }
    ++entries;
    const bool qgemm = key.find(":q:") != std::string::npos;
    const bool is_default =
        qgemm ? mr == 4
              : (mr == variant.default_sgemm().mr &&
                 nr == variant.default_sgemm().nr && mc == 128 && nc == 256);
    if (!is_default) ++nondefault;
  }
  return entries == 0 ? 0.0
                      : static_cast<double>(nondefault) /
                            static_cast<double>(entries);
}

// Per-layer timings read from the tracer: metric base, span name, and the
// factor from span microseconds to the metric's unit.
struct SpanTiming {
  const char* metric;
  const char* span;
  double scale;
};
constexpr SpanTiming kSpanTimings[] = {
    {"tensor.sgemm_tiny_us", "tensor.sgemm_tiny_x100", 1e-2},
    {"geo.synthesize_ms", "geo.synthesize", 1e-3},
    {"geo.extract_tile_us", "geo.extract_tile", 1.0},
    {"nn.forward_ms", "nn.forward", 1e-3},
    {"nn.backward_ms", "nn.backward", 1e-3},
    {"nn.sgd_step_ms", "nn.sgd_step", 1e-3},
    {"detect.screener_batch_ms", "detect.screener_batch", 1e-3},
    {"detect.full_batch_ms", "detect.full_batch", 1e-3},
    {"detect.eval_ms", "detect.evaluate_detector", 1e-3},
    {"graph.optimize_graph_ms", "graph.optimize_graph", 1e-3},
    {"ios.optimize_schedule_ms", "ios.optimize_schedule", 1e-3},
    {"simgpu.measure_latency_ms", "simgpu.measure_latency", 1e-3},
    {"nas.trial_s", "nas.trial", 1e-6},
    {"scan.dedupe_ms", "scan.dedupe", 1e-3},
    {"serve.trace_gen_ms", "serve.generate_trace", 1e-3},
    {"serve.serve_s", "serve.serve", 1e-6},
    {"shard.partition_ms", "shard.partition_graph", 1e-3},
};

// Per-layer values a workload sets (shares, counts and virtual-clock
// figures); a workload that does not exercise the layer reports 0.
constexpr const char* kLayerValues[] = {
    "tensor.tuner_tuned",
    "tensor.tuner_nondefault_share",
    "detect.train_samples_per_s",
    "ios.cache_block_hit_rate",
    "ios.cache_cost_hit_rate",
    "nas.feasible_share",
    "nas.failed_trials",
    "nas.selected_ap",
    "nas.selected_latency_ms",
    "scan.stage1_host_share",
    "scan.survivor_fraction",
    "scan.virtual_stage1_occupancy",
    "scan.virtual_stage2_occupancy",
    "scan.virtual_serving_tiles_per_s",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p99_ms",
    "serve.hedged_share",
    "serve.degraded_share",
    "serve.rejected_share",
    "serve.expired_share",
    "serve.failed_share",
    "serve.slo_attainment",
    "serve.mean_batch_size",
    "serve.occupancy",
    "shard.bubble_fraction",
    "host.raw_tiles_per_s",
    "host.raw_trials_per_min",
    "host.raw_sim_requests_per_s",
    "host.trace_overhead_ms",
    "host.threads",
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const MetricMap& metrics,
                  const std::map<std::string, std::string>& units) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, v] : metrics) {
    if (!std::isfinite(v)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           units.at(name) + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

std::string layer_unit(const std::string& name) {
  const auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  const auto has = [&](const std::string& part) {
    return name.find(part) != std::string::npos;
  };
  if (ends_with(".n") || ends_with("_tuned") || ends_with("_trials") ||
      ends_with(".threads")) {
    return "count";
  }
  if (ends_with(".tail_pct")) return "%";
  if (ends_with("_per_s")) return "1/s";
  if (ends_with("_per_min")) return "1/min";
  if (ends_with("mean_batch_size")) return "requests";
  // Queue waits and the selection's latency are virtual-clock figures.
  if (has("queue_wait") || has("selected_latency")) return "virtual_ms";
  for (const std::string u : {"_us", "_ms", "_s"}) {
    if (has(u + ".") || ends_with(u)) return u.substr(1);
  }
  return "share";
}

int run(const Args& args) {
  // The run's own tile-tuner cache, empty at the start: never the user's
  // default cache, whose entries earlier runs of any commit left behind.
  // Set before anything can consult the tuner.
  const std::string tuner_dir = args.run_dir + "/tuner";
  std::filesystem::remove_all(tuner_dir);
  std::filesystem::create_directories(tuner_dir);
  setenv("DCN_TUNER_CACHE", tuner_dir.c_str(), 1);
  dcn::set_log_level(dcn::LogLevel::kWarn);
  RunOptions options;
  options.seed = args.seed;
  options.smoke = args.smoke;
  // Pinned explicitly to one tensor-engine thread: on a shared 4-vCPU
  // host a scalar probe loop spread 3.5% (IQR / median) on one thread but
  // ~50% on two or four, where any preempted worker stalls the team.
  options.threads = 1;
  dcn::set_num_threads(options.threads);
  const std::string variant =
      dcn::kernels::KernelRegistry::global().active().name;

  tracer().set_enabled(args.trace);
  auto& tuner = dcn::kernels::TileTuner::global();
  tuner.set_enabled(true);
  const int setup_reps = args.smoke ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  std::vector<std::string> setup_digests;
  std::int64_t tuned_in_setup = 0;
  // The first set-up tunes every shape class into the empty cache; later
  // ones start from a cold in-memory memo and replay the winners from disk,
  // as a process on a host with a warm cache does.
  // Set-up time is host time too: each set-up is scaled by the probes run
  // just before and after it, like a timed unit.
  double probe_before_ms = -1.0;
  for (int rep = 0; rep < setup_reps; ++rep) {
    workload.reset();
    tuner.set_cache_dir(tuner_dir);
    tuner.reset_stats();
    dcn::ios::ScheduleCache::global().clear();
    workload = make_workload(args.workload, options);
    if (probe_before_ms < 0.0) probe_before_ms = run_probe_ms(workload->threads());
    const double t0 = now_seconds();
    workload->setup();
    const double raw_s = now_seconds() - t0;
    const double probe_after_ms = run_probe_ms(workload->threads());
    setup_s.push_back(scale_to_reference(
        raw_s, kProbeNominalMs, 0.5 * (probe_before_ms + probe_after_ms)));
    probe_before_ms = probe_after_ms;
    if (rep == 0) tuned_in_setup = tuner.stats().tuned;
    setup_digests.push_back(workload->output_digest());
  }
  std::fprintf(stderr, "workload %s seed %llu: %d thread(s), kernel variant %s, "
               "set-up %s s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), workload->threads(),
               variant.c_str(),
               [&] {
                 std::string s;
                 for (const double v : setup_s) {
                   s += (s.empty() ? "" : " ") + std::to_string(v);
                 }
                 return s;
               }()
                   .c_str());

  UnitRunner runner(workload->threads());
  std::vector<double> unit_ms;         // per round, scaled
  std::vector<double> traced_unit_ms;  // trace runs: rounds with spans on
  std::vector<double> raw_round_rate;  // work per raw host second
  std::vector<double> scaled_round_rate;
  const double deadline = now_seconds() + args.seconds;
  std::int64_t rounds = 0;
  do {
    // Trace runs alternate untraced and traced rounds; the difference of
    // their unit times is the tracing overhead.
    const bool traced = args.trace && rounds % 2 == 1;
    tracer().set_enabled(traced);
    const RoundResult r = workload->round(runner);
    const double ms = r.scaled_s / static_cast<double>(r.units) * 1e3;
    (traced ? traced_unit_ms : unit_ms).push_back(ms);
    raw_round_rate.push_back(r.work / r.raw_s);
    scaled_round_rate.push_back(r.work / r.scaled_s);
    ++rounds;
  } while (now_seconds() < deadline && !args.smoke);
  tracer().set_enabled(args.trace);
  if (args.trace) {
    workload->layer_probes();
    run_layer_kit(args.seed, [](const char* span) {
      return tracer().durations(span, 1.0).empty();
    });
  }

  MetricMap e2e;
  MetricMap layers;
  const std::int64_t late_failures = workload->finish(e2e, layers);
  const std::int64_t attempted = runner.attempted();
  std::int64_t failed = std::min(attempted, runner.failed() + late_failures);

  // Every set-up of this run, and every earlier run of this seed in this
  // run directory, must have produced the same outputs; otherwise no unit
  // counts as correct.
  const std::string digest_path = args.run_dir + "/outputs.digest";
  std::string stored;
  std::getline(std::ifstream(digest_path) >> std::ws, stored);
  const std::string current = setup_digests.back();
  const bool same_setups =
      std::all_of(setup_digests.begin(), setup_digests.end(),
                  [&](const std::string& d) { return d == current; });
  if (stored.empty()) std::ofstream(digest_path) << current << '\n';
  if (!same_setups || (!stored.empty() && stored != current)) {
    std::fprintf(stderr, "outputs differ from %s (digest %s, stored %s)\n",
                 same_setups ? "an earlier run of this seed"
                             : "another set-up of this run",
                 current.c_str(), stored.c_str());
    failed = attempted;
  }

  e2e["setup_s"] = median(setup_s);
  e2e["peak_rss_mb"] = peak_rss_mb();
  e2e["host_unit_ms"] = median(unit_ms);

  const double scaled_rate = median(scaled_round_rate);
  const double raw_rate = median(raw_round_rate);
  const Quartiles probe_q = quartiles(runner.probes());
  std::fprintf(stderr,
               "%lld round(s), %lld unit(s), %lld failed; host %.4g %s/s at "
               "reference speed (raw %.4g; %.4g per min), probe median "
               "%.3f ms (q1 %.3f, q3 %.3f, nominal %.1f)\n",
               static_cast<long long>(rounds),
               static_cast<long long>(attempted),
               static_cast<long long>(failed), scaled_rate,
               workload->work_name(), raw_rate, scaled_rate * 60.0,
               probe_q.q2, probe_q.q1, probe_q.q3, kProbeNominalMs);

  const bool correct = failed == 0;
  if (!args.trace) {
    const std::map<std::string, std::string> units = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"host_unit_ms", "ms"},
        {"virtual_latency", "virtual_ms"},
        {"virtual_rate", "1/virtual_s"},
    };
    for (const auto& [name, unit] : units) {
      if (!e2e.count(name)) {
        throw std::runtime_error("workload reported no " + name);
      }
      std::fprintf(stderr, "  %-22s %14.6g %s\n", name.c_str(), e2e.at(name),
                   unit.c_str());
    }
    print_result(correct, attempted, failed, e2e, units);
  } else {
    MetricMap out;
    for (const char* name : kLayerValues) out[name] = 0.0;
    for (const auto& [name, v] : layers) {
      if (!out.count(name)) {
        throw std::logic_error("undeclared per-layer metric " + name);
      }
      out[name] = v;
    }
    for (const SpanTiming& t : kSpanTimings) {
      put_tail(out, t.metric, tracer().durations(t.span, t.scale));
    }
    put_tail(out, "host.ref_probe_ms", runner.probes());
    out["tensor.tuner_tuned"] = static_cast<double>(tuned_in_setup);
    out["tensor.tuner_nondefault_share"] = tuner_nondefault_share(tuner_dir);
    const auto cache = dcn::ios::ScheduleCache::global().stats();
    const auto rate = [](std::int64_t hits, std::int64_t misses) {
      return hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses);
    };
    out["ios.cache_block_hit_rate"] =
        rate(cache.block_hits, cache.block_misses);
    out["ios.cache_cost_hit_rate"] = rate(cache.cost_hits, cache.cost_misses);
    double screener_ms = 0.0;
    double full_ms = 0.0;
    for (const double v : tracer().durations("detect.screener_batch", 1e-3)) {
      screener_ms += v;
    }
    for (const double v : tracer().durations("detect.full_batch", 1e-3)) {
      full_ms += v;
    }
    if (screener_ms + full_ms > 0.0) {
      out["scan.stage1_host_share"] = screener_ms / (screener_ms + full_ms);
    }
    if (!unit_ms.empty() && !traced_unit_ms.empty()) {
      out["host.trace_overhead_ms"] = median(traced_unit_ms) - median(unit_ms);
    }
    out["host.threads"] = workload->threads();

    std::fprintf(stderr, "\nper-layer self time (traced rounds, set-up and "
                 "layer probes):\n%s\n",
                 tracer().self_time_table().c_str());
    const std::string trace_path = args.run_dir + "/trace.json";
    std::ofstream(trace_path) << tracer().chrome_trace(
        "{\"workload\": \"" + args.workload + "\", \"seed\": " +
        std::to_string(args.seed) + ", \"threads\": " +
        std::to_string(workload->threads()) + ", \"kernel_variant\": \"" +
        variant + "\"}");
    std::fprintf(stderr, "chrome trace written to %s\n", trace_path.c_str());
    std::map<std::string, std::string> units;
    for (const auto& [name, v] : out) units[name] = layer_unit(name);
    print_result(correct, attempted, failed, out, units);
  }
  // The tuner cache is scratch state of this run only.
  std::filesystem::remove_all(tuner_dir);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcn_perfbench: %s\n", e.what());
    return 1;
  }
}
