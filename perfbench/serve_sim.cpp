// serve-sim: a mixed fleet of whole-model replicas plus pipeline groups
// on 192 simulated devices, under seeded open-loop diurnal + burst
// traffic and a fixed chaos schedule. One discrete-event simulation per
// unit; a round is the sub-saturation rate, the 2x overload rate and the
// bisection rungs for the highest rate that keeps p99 within the deadline.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "detect/sppnet_config.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "serve/server.hpp"
#include "shard/partition.hpp"
#include "shard/pipeline.hpp"
#include "simgpu/device.hpp"
#include "simgpu/spec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dcn;

constexpr int kReplicas = 64;      // whole-model replicas, 1 device each
constexpr int kInt8Replicas = 16;  // the tail of them: the shed pool
constexpr int kGroups = 32;        // pipeline groups ...
constexpr int kStages = 4;         // ... of 4 devices: 64 + 128 = 192
constexpr int kMaxBatch = 8;
constexpr std::int64_t kMicrobatch = 4;
constexpr double kDeadline = 0.025;
constexpr double kSubSaturation = 0.5;  // x nominal fleet capacity
constexpr double kOverload = 2.0;
constexpr int kBisectionRungs = 7;

/// What one simulation produced, reduced to what the metrics need.
struct SimOutcome {
  serve::ServingReport report;
  std::uint64_t log_digest = 0;
  double p99_with_misses = 0.0;  // +inf when more than 1% missed
  double slo_attainment = 0.0;   // completed within deadline / offered
  std::vector<double> queue_wait_ms;
  std::int64_t hedged = 0;
  double bubble_fraction = 0.0;
  bool accounted = false;
};

class ServeSimWorkload final : public Workload {
 public:
  explicit ServeSimWorkload(const RunOptions& options) : options_(options) {
    requests_ = options.smoke ? 4000 : 30000;
  }

  const char* work_name() const override { return "simulated requests"; }
  // The discrete-event simulation is single-threaded.
  int threads() const override { return 1; }

  void setup() override {
    spec_ = simgpu::a5500_spec();
    {
      ScopedSpan span("graph.optimize_graph");
      graph_ = graph::optimize_graph(
          graph::build_inference_graph(detect::sppnet_candidate2(), 100));
    }
    ios::IosOptions batch_options;
    batch_options.batch = kMaxBatch;
    {
      ScopedSpan span("ios.optimize_schedule");
      schedule_ = ios::optimize_schedule(graph_, spec_, batch_options);
    }
    shard::PartitionOptions popts;
    popts.stages = kStages;
    popts.ios.batch = kMicrobatch;
    {
      ScopedSpan span("shard.partition_graph");
      partition_ = shard::partition_graph(graph_, spec_, popts);
    }
    resilient_.retry.max_attempts = 4;
    resilient_.retry.base_backoff = 1.0e-4;
    resilient_.retry.max_backoff = 1.0e-2;
    pipe_options_.microbatch = kMicrobatch;
    pipe_options_.queue_capacity = 2;
    pipe_options_.resilient = resilient_;

    // Nominal capacity from one batch on each backend kind: rates are
    // multiples of it, so every rate is a pure function of the model.
    double replica_batch_s = 0.0;
    double pipeline_batch_s = 0.0;
    {
      ScopedSpan span("simgpu.measure_latency");
      simgpu::Device device(spec_);
      replica_batch_s =
          ios::measure_latency(graph_, schedule_, device, kMaxBatch);
      shard::PipelineGroup group(partition_, spec_, pipe_options_);
      pipeline_batch_s = group.serve_batch(0.0, kMaxBatch).end;
    }
    capacity_ = kMaxBatch * (kReplicas / replica_batch_s +
                             kGroups / pipeline_batch_s);

    // Warm-up and reference: the round's first two simulations.
    sub_ = simulate(kSubSaturation * capacity_);
    over_ = simulate(kOverload * capacity_);
    // The bisection starts from the sub-saturation rate as its known-good
    // end.
    if (!(sub_.p99_with_misses <= kDeadline)) {
      throw std::runtime_error("serve-sim: p99 at the sub-saturation rate "
                               "misses the deadline");
    }
    double lo = kSubSaturation;
    double hi = kOverload;
    for (int rung = 0; rung < kBisectionRungs; ++rung) {
      const double mid = 0.5 * (lo + hi);
      rates_.push_back(mid);
      (simulate(mid * capacity_).p99_with_misses <= kDeadline ? lo : hi) = mid;
    }
    max_rate_ = lo * capacity_;
  }

  RoundResult round(UnitRunner& runner) override {
    RoundResult result;
    const auto unit = [&](double load, const SimOutcome* reference) {
      SimOutcome out;
      const UnitSample s = runner.run(
          "serve.simulation", [&] { out = simulate(load * capacity_); },
          [&] {
            bool ok = out.accounted;
            if (reference != nullptr && out.log_digest != reference->log_digest) {
              std::fprintf(stderr, "serve-sim: completion log changed\n");
              ok = false;
            }
            return ok;
          });
      result.scaled_s += s.scaled_s;
      result.raw_s += s.raw_s;
      result.units += 1;
      result.work += static_cast<double>(out.report.offered);
    };
    unit(kSubSaturation, &sub_);
    unit(kOverload, &over_);
    for (const double load : rates_) unit(load, nullptr);
    raw_rates_.push_back(result.work / result.raw_s);
    return result;
  }

  void layer_probes() override {}

  std::string output_digest() const override {
    return std::to_string(sub_.log_digest) + "-" +
           std::to_string(over_.log_digest);
  }

  std::int64_t finish(MetricMap& e2e, MetricMap& layers) override {
    e2e["virtual_latency"] = sub_.p99_with_misses * 1e3;
    e2e["virtual_rate"] = max_rate_;

    const serve::ServingReport& o = over_.report;
    const double offered = static_cast<double>(o.offered);
    const double sub_offered = static_cast<double>(sub_.report.offered);
    if (!sub_.queue_wait_ms.empty()) {
      layers["serve.queue_wait_p50_ms"] = percentile(sub_.queue_wait_ms, 50.0);
      layers["serve.queue_wait_p99_ms"] = percentile(sub_.queue_wait_ms, 99.0);
    }
    layers["serve.hedged_share"] =
        static_cast<double>(sub_.hedged) / sub_offered;
    layers["serve.degraded_share"] =
        o.completed == 0 ? 0.0
                         : static_cast<double>(o.degraded_served) /
                               static_cast<double>(o.completed);
    layers["serve.rejected_share"] = static_cast<double>(o.rejected) / offered;
    layers["serve.expired_share"] =
        static_cast<double>(o.deadline_expired) / offered;
    layers["serve.failed_share"] = static_cast<double>(o.failed) / offered;
    layers["serve.slo_attainment"] = over_.slo_attainment;
    layers["serve.mean_batch_size"] = o.mean_batch_size;
    layers["serve.occupancy"] = o.occupancy();
    layers["shard.bubble_fraction"] = over_.bubble_fraction;
    layers["host.raw_sim_requests_per_s"] = median(raw_rates_);
    std::fprintf(stderr,
                 "serve-sim: capacity %.0f req/s; %.1fx: virtual_p99_ms %.4f; "
                 "%.1fx: slo_attainment %.4f, rejected %.4f; "
                 "virtual_max_rate_per_s %.0f (%.3fx capacity)\n",
                 capacity_, kSubSaturation, sub_.p99_with_misses * 1e3,
                 kOverload, over_.slo_attainment, layers["serve.rejected_share"],
                 max_rate_, max_rate_ / capacity_);
    return 0;
  }

 private:
  SimOutcome simulate(double rate) {
    serve::TrafficConfig traffic;
    traffic.seed = options_.seed;
    traffic.rate = rate;
    traffic.burst_factor = 1.0;
    traffic.burst_duty = 0.2;
    traffic.duration =
        static_cast<double>(requests_) /
        (rate * (1.0 + traffic.burst_factor * traffic.burst_duty));
    traffic.burst_period = traffic.duration / 8.0;
    traffic.diurnal_amplitude = 0.35;
    traffic.diurnal_period = traffic.duration;
    traffic.deadline = kDeadline;
    std::vector<serve::Request> trace;
    {
      ScopedSpan span("serve.generate_trace");
      trace = serve::generate_trace(traffic);
    }

    serve::ServerConfig config;
    config.batch.max_batch = kMaxBatch;
    config.batch.timeout = 2.0e-3;
    config.queue_capacity = 1024;
    config.replicas = kReplicas;
    config.device = spec_;
    config.resilient = resilient_;
    config.replica_precisions.assign(kReplicas, simgpu::Precision::kFp32);
    for (int r = kReplicas - kInt8Replicas; r < kReplicas; ++r) {
      config.replica_precisions[static_cast<std::size_t>(r)] =
          simgpu::Precision::kInt8;
    }
    config.fleet.hedge.enabled = true;
    config.fleet.hedge.factor = 2.0;
    config.fleet.shed.enabled = true;
    config.fleet.shed.degrade_watermark = 0.5;
    config.fleet.shed.restore_watermark = 0.125;
    // The fixed chaos schedule, in fractions of the trace: a permanent
    // crash storm, then a straggler wave.
    serve::CrashStorm storm;
    storm.time = 0.25 * traffic.duration;
    storm.kills = 8;
    serve::StragglerWave wave;
    wave.onset = 0.5 * traffic.duration;
    wave.duration = 0.2 * traffic.duration;
    wave.count = 8;
    wave.factor = 6.0;
    config.fleet.chaos.seed = options_.seed;
    config.fleet.chaos.storms = {storm};
    config.fleet.chaos.waves = {wave};

    std::vector<std::unique_ptr<serve::Backend>> groups;
    std::vector<const shard::PipelineGroup*> raw;
    for (int g = 0; g < kGroups; ++g) {
      auto group =
          std::make_unique<shard::PipelineGroup>(partition_, spec_,
                                                 pipe_options_);
      raw.push_back(group.get());
      groups.push_back(std::move(group));
    }
    serve::Server server(graph_, schedule_, config, nullptr,
                         std::move(groups));
    SimOutcome out;
    {
      ScopedSpan span("serve.serve");
      out.report = server.serve(trace);
    }
    const serve::ServingReport& r = out.report;
    out.accounted = r.offered == static_cast<std::int64_t>(trace.size()) &&
                    r.offered == r.completed + r.rejected +
                                     r.deadline_expired + r.failed;
    if (!out.accounted) {
      std::fprintf(stderr, "serve-sim: offered %lld != %lld + %lld + %lld + "
                   "%lld\n", static_cast<long long>(r.offered),
                   static_cast<long long>(r.completed),
                   static_cast<long long>(r.rejected),
                   static_cast<long long>(r.deadline_expired),
                   static_cast<long long>(r.failed));
    }

    // p99 over every offered request; a request that was rejected,
    // expired or failed counts as a miss of infinite latency.
    std::vector<double> latency;
    std::int64_t met = 0;
    latency.reserve(server.log().size());
    for (const serve::CompletionRecord& c : server.log()) {
      const bool done = c.status == serve::RequestStatus::kCompleted;
      latency.push_back(done ? c.completion - c.arrival
                             : std::numeric_limits<double>::infinity());
      if (done && c.deadline_met) ++met;
      if (c.batch >= 0) out.queue_wait_ms.push_back((c.dispatch - c.arrival) * 1e3);
      if (c.hedged) ++out.hedged;
    }
    out.p99_with_misses = latency.empty() ? 0.0 : percentile(latency, 99.0);
    out.slo_attainment = r.offered == 0 ? 0.0
                                        : static_cast<double>(met) /
                                              static_cast<double>(r.offered);
    out.log_digest = digest(serve::Server::log_to_csv(server.log()));
    double busy = 0.0;
    double bubble = 0.0;
    for (const shard::PipelineGroup* group : raw) {
      for (const shard::StageCounters& c : group->stage_counters()) {
        busy += c.busy_seconds;
        bubble += c.bubble_seconds;
      }
    }
    out.bubble_fraction = busy + bubble > 0.0 ? bubble / (busy + bubble) : 0.0;
    return out;
  }

  RunOptions options_;
  std::int64_t requests_ = 0;
  simgpu::DeviceSpec spec_;
  graph::Graph graph_;
  ios::Schedule schedule_;
  shard::Partition partition_;
  ios::ResilientOptions resilient_;
  shard::PipelineOptions pipe_options_;
  double capacity_ = 0.0;
  SimOutcome sub_;
  SimOutcome over_;
  std::vector<double> rates_;  // bisection rungs, x capacity
  double max_rate_ = 0.0;
  std::vector<double> raw_rates_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_sim(const RunOptions& options) {
  return std::make_unique<ServeSimWorkload>(options);
}

}  // namespace perfbench
