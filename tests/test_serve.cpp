// Tests for the serving subsystem: traffic generation, admission control,
// dynamic batching, latency histograms, the SLO-aware server, and the
// replica-count-invariant completion log.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "core/error.hpp"
#include "core/retry.hpp"
#include "graph/graph.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "profiler/counters.hpp"
#include "profiler/trace.hpp"
#include "serve/server.hpp"
#include "simgpu/device.hpp"

namespace dcn::serve {
namespace {

// Conv trunk with three parallel pooling branches — enough structure for
// IOS to find concurrency, small enough that a batch serves in well under a
// millisecond of virtual time.
graph::Graph branched_graph() {
  graph::Graph g;
  const auto in = g.add_op(graph::OpKind::kInput, "in", {}, {},
                           graph::TensorDesc{{16, 16, 16}});
  graph::OpAttrs conv;
  conv.kernel = 3;
  conv.stride = 1;
  conv.padding = 1;
  conv.out_channels = 16;
  const auto trunk = g.add_op(graph::OpKind::kConv2d, "trunk", conv, {in},
                              graph::TensorDesc{{16, 16, 16}});
  std::vector<graph::OpId> outs;
  std::int64_t total = 0;
  for (int b = 0; b < 3; ++b) {
    graph::OpAttrs pool;
    pool.pool_out = b + 1;
    const auto p = g.add_op(
        graph::OpKind::kAdaptivePool, "pool" + std::to_string(b), pool,
        {trunk}, graph::TensorDesc{{16, b + 1, b + 1}});
    const auto f = g.add_op(
        graph::OpKind::kFlatten, "flat" + std::to_string(b), {}, {p},
        graph::TensorDesc{{16 * (b + 1) * (b + 1)}});
    outs.push_back(f);
    total += 16 * (b + 1) * (b + 1);
  }
  const auto concat = g.add_op(graph::OpKind::kConcat, "cat", {}, outs,
                               graph::TensorDesc{{total}});
  g.add_op(graph::OpKind::kOutput, "out", {}, {concat},
           graph::TensorDesc{{total}});
  return g;
}

ios::Schedule schedule_for(const graph::Graph& g) {
  return ios::optimize_schedule(g, simgpu::a5500_spec());
}

// Measured batch service time on a fresh device — the yardstick the serving
// tests use to place themselves in a light- or over-load regime.
double service_seconds(const graph::Graph& g, const ios::Schedule& s,
                       std::int64_t batch) {
  simgpu::Device probe(simgpu::a5500_spec());
  return ios::measure_latency(g, s, probe, batch);
}

// --- Traffic ---------------------------------------------------------------

TEST(Traffic, DeterministicAndOrdered) {
  TrafficConfig config;
  config.seed = 7;
  config.duration = 5.0;
  config.rate = 100.0;
  config.burst_factor = 1.0;
  config.diurnal_amplitude = 0.5;
  config.diurnal_period = 2.0;
  const auto a = generate_trace(config);
  const auto b = generate_trace(config);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<std::int64_t>(i));
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_GE(a[i].arrival, 0.0);
    EXPECT_LT(a[i].arrival, config.duration);
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
    EXPECT_TRUE(std::isinf(a[i].deadline));  // no deadline configured
  }
}

TEST(Traffic, RateControlsVolume) {
  TrafficConfig slow;
  slow.duration = 20.0;
  slow.rate = 20.0;
  TrafficConfig fast = slow;
  fast.rate = 200.0;
  const auto few = generate_trace(slow);
  const auto many = generate_trace(fast);
  EXPECT_GT(many.size(), few.size() * 5);
  // Mean count within 3 sigma of rate * duration.
  const double expected = fast.rate * fast.duration;
  EXPECT_NEAR(static_cast<double>(many.size()), expected,
              3.0 * std::sqrt(expected));
}

TEST(Traffic, DeadlinesAreAbsolute) {
  TrafficConfig config;
  config.duration = 2.0;
  config.rate = 50.0;
  config.deadline = 0.025;
  for (const Request& r : generate_trace(config)) {
    EXPECT_DOUBLE_EQ(r.deadline, r.arrival + 0.025);
  }
}

TEST(Traffic, RateModulation) {
  TrafficConfig config;
  config.rate = 100.0;
  config.burst_factor = 2.0;
  config.burst_period = 1.0;
  config.burst_duty = 0.25;
  // Inside the burst window the rate triples; outside it is the base rate.
  EXPECT_DOUBLE_EQ(instantaneous_rate(config, 0.1), 300.0);
  EXPECT_DOUBLE_EQ(instantaneous_rate(config, 0.6), 100.0);
  config.burst_factor = 0.0;
  config.diurnal_amplitude = 0.5;
  config.diurnal_period = 4.0;
  // Sinusoid peak at a quarter period.
  EXPECT_DOUBLE_EQ(instantaneous_rate(config, 1.0), 100.0 * 1.5);
  config.burst_factor = 2.0;
  for (double t = 0.0; t < 8.0; t += 0.05) {
    EXPECT_LE(instantaneous_rate(config, t), peak_rate(config) + 1e-9);
  }
}

TEST(Traffic, Validation) {
  TrafficConfig config;
  config.rate = 0.0;
  EXPECT_THROW(generate_trace(config), ConfigError);
  config = {};
  config.duration = -1.0;
  EXPECT_THROW(generate_trace(config), ConfigError);
  config = {};
  config.burst_factor = -0.5;
  EXPECT_THROW(generate_trace(config), ConfigError);
  config = {};
  config.burst_duty = 1.5;
  EXPECT_THROW(generate_trace(config), ConfigError);
  config = {};
  config.diurnal_amplitude = 1.0;
  EXPECT_THROW(generate_trace(config), ConfigError);
  config = {};
  config.deadline = -0.1;
  EXPECT_THROW(generate_trace(config), ConfigError);
}

// --- Admission queue -------------------------------------------------------

TEST(BoundedQueue, RejectsWhenFullAndCounts) {
  BoundedQueue q(3);
  for (std::int64_t i = 0; i < 5; ++i) {
    Request r;
    r.id = i;
    r.arrival = static_cast<double>(i);
    EXPECT_EQ(q.offer(r), i < 3);
  }
  EXPECT_EQ(q.admitted(), 3);
  EXPECT_EQ(q.rejected(), 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front().id, 0);
  const auto popped = q.pop(2);
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped[0].id, 0);
  EXPECT_EQ(popped[1].id, 1);
  EXPECT_EQ(q.pop(10).size(), 1u);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(BoundedQueue(0), ConfigError);
}

// --- Dynamic batcher -------------------------------------------------------

Request at(std::int64_t id, double arrival) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  return r;
}

TEST(DynamicBatcher, SizeTriggerFiresWhenFull) {
  DynamicBatcher batcher({/*max_batch=*/3, /*timeout=*/1.0}, 16);
  EXPECT_EQ(batcher.next_flush_time(0.0), std::nullopt);
  batcher.offer(at(0, 0.0));
  batcher.offer(at(1, 0.1));
  // Partial batch: flush when the oldest request has aged out.
  EXPECT_DOUBLE_EQ(*batcher.next_flush_time(0.2), 1.0);
  batcher.offer(at(2, 0.2));
  // Full batch: ready the instant the replica is free.
  EXPECT_DOUBLE_EQ(*batcher.next_flush_time(0.2), 0.2);
  const Batch b = batcher.flush(0.2);
  EXPECT_EQ(b.trigger, FlushTrigger::kSize);
  EXPECT_EQ(b.index, 0);
  ASSERT_EQ(b.requests.size(), 3u);
  EXPECT_EQ(batcher.size_flushes(), 1);
  EXPECT_EQ(batcher.timeout_flushes(), 0);
}

TEST(DynamicBatcher, TimeoutTriggerAndBusyReplicaClamp) {
  DynamicBatcher batcher({/*max_batch=*/4, /*timeout=*/0.5}, 16);
  batcher.offer(at(0, 2.0));
  EXPECT_DOUBLE_EQ(*batcher.next_flush_time(0.0), 2.5);
  // A busy replica postpones even an aged-out batch.
  EXPECT_DOUBLE_EQ(*batcher.next_flush_time(3.25), 3.25);
  const Batch b = batcher.flush(2.5);
  EXPECT_EQ(b.trigger, FlushTrigger::kTimeout);
  EXPECT_DOUBLE_EQ(b.cut_time, 2.5);
  EXPECT_EQ(batcher.timeout_flushes(), 1);
  EXPECT_EQ(batcher.batches(), 1);
}

TEST(DynamicBatcher, Validation) {
  EXPECT_THROW(DynamicBatcher({0, 1.0}, 16), ConfigError);
  EXPECT_THROW(DynamicBatcher({4, -1.0}, 16), ConfigError);
  EXPECT_THROW(DynamicBatcher({8, 1.0}, 4), ConfigError);  // capacity < batch
}

// --- Latency histogram -----------------------------------------------------

TEST(LatencyHistogram, QuantilesWithinRelativeError) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i * 1.0e-4);  // 0.1ms .. 100ms
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.min(), 1.0e-4);
  EXPECT_DOUBLE_EQ(h.max(), 0.1);
  EXPECT_NEAR(h.mean(), 0.05005, 1e-9);
  // Log-bucketed quantiles carry ~2^(1/8) relative error.
  EXPECT_NEAR(h.quantile(0.5), 0.05, 0.05 * 0.10);
  EXPECT_NEAR(h.quantile(0.95), 0.095, 0.095 * 0.10);
  EXPECT_NEAR(h.quantile(0.99), 0.099, 0.099 * 0.10);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(LatencyHistogram, EdgeCases) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.add(-1.0);  // clamped to zero
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  h.add(3.0e-3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0e-3);
  EXPECT_THROW(LatencyHistogram(0.0), ConfigError);
}

// --- Satellite: typed batch validation in the executor ---------------------

TEST(InferenceSession, RejectsNonPositiveBatch) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  simgpu::Device device(simgpu::a5500_spec());
  ios::InferenceSession session(g, s, device);
  session.initialize();
  EXPECT_THROW(session.run(0), ConfigError);
  EXPECT_THROW(session.run(-3), ConfigError);
  EXPECT_GT(session.run(1).latency_seconds, 0.0);
}

// --- Satellite: seedable backoff jitter ------------------------------------

TEST(SeededBackoff, SeededStreamsReproduceAndReseed) {
  RetryPolicy policy;
  policy.base_backoff = 1.0e-3;
  policy.multiplier = 2.0;
  policy.max_backoff = 1.0;
  policy.jitter = 0.5;
  SeededBackoff a(policy, 42);
  SeededBackoff b(policy, 42);
  SeededBackoff c(policy, 43);
  std::vector<double> first;
  bool any_differs = false;
  for (int retry = 1; retry <= 6; ++retry) {
    const double da = a.delay(retry);
    EXPECT_DOUBLE_EQ(da, b.delay(retry));
    any_differs = any_differs || da != c.delay(retry);
    // Jitter stays within [1 - j, 1 + j) of the exponential envelope.
    const double exact = std::min(
        policy.base_backoff * std::pow(policy.multiplier, retry - 1),
        policy.max_backoff);
    EXPECT_GE(da, exact * 0.5);
    EXPECT_LT(da, exact * 1.5);
    first.push_back(da);
  }
  EXPECT_TRUE(any_differs);  // different seed, different jitter
  a.reseed(42);
  for (int retry = 1; retry <= 6; ++retry) {
    EXPECT_DOUBLE_EQ(a.delay(retry),
                     first[static_cast<std::size_t>(retry - 1)]);
  }
}

TEST(SeededBackoff, NoJitterIsExact) {
  RetryPolicy policy;  // jitter = 0
  SeededBackoff b(policy, 99);
  EXPECT_DOUBLE_EQ(b.delay(1), policy.base_backoff);
  EXPECT_DOUBLE_EQ(b.delay(2), policy.base_backoff * 2.0);
}

// --- Server ----------------------------------------------------------------

TEST(Server, AccountingIdentitiesAndOrderedLog) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  TrafficConfig traffic;
  traffic.seed = 11;
  traffic.duration = 2.0;
  traffic.rate = 400.0;
  traffic.burst_factor = 1.0;
  const auto trace = generate_trace(traffic);

  ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 32;
  Server server(g, s, config);
  const ServingReport report = server.serve(trace);

  EXPECT_EQ(report.offered, static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(report.offered, report.admitted + report.rejected);
  EXPECT_EQ(report.admitted,
            report.completed + report.deadline_expired + report.failed);
  EXPECT_EQ(report.completed, report.latency.count());
  EXPECT_EQ(report.batches, report.size_flushes + report.timeout_flushes);
  EXPECT_GT(report.completed, 0);
  EXPECT_GT(report.throughput, 0.0);
  EXPECT_LE(report.p50, report.p95);
  EXPECT_LE(report.p95, report.p99);

  // Exactly one completion record per offered request, sorted by id.
  const auto& log = server.log();
  ASSERT_EQ(log.size(), trace.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].id, static_cast<std::int64_t>(i));
    if (log[i].status == RequestStatus::kCompleted) {
      EXPECT_GE(log[i].completion, log[i].arrival);
      EXPECT_LE(log[i].batch_size, config.batch.max_batch);
    }
  }
  EXPECT_NE(report.to_string().find("Serving Statistics"), std::string::npos);
}

TEST(Server, OverloadShedsAtAdmission) {
  const auto g = branched_graph();
  const auto s = ios::optimize_schedule(g, simgpu::tiny_spec());
  TrafficConfig traffic;
  traffic.duration = 0.5;
  // Far beyond what a warm tiny_spec replica can serve: the fleet no
  // longer pays initialization on the trace timeline, so the overload
  // has to come from the offered rate alone.
  traffic.rate = 20000.0;
  const auto trace = generate_trace(traffic);

  ServerConfig config;
  config.batch = {4, 1.0e-3};
  config.queue_capacity = 4;
  config.device = simgpu::tiny_spec();
  Server server(g, s, config);
  const ServingReport report = server.serve(trace);
  EXPECT_GT(report.rejected, 0);
  EXPECT_GT(report.reject_rate(), 0.0);
  EXPECT_EQ(report.offered, report.admitted + report.rejected);
  EXPECT_EQ(report.max_queue_depth, 4);
}

TEST(Server, DeadlinesExpireInQueueAndSloIsTracked) {
  const auto g = branched_graph();
  const auto s = ios::optimize_schedule(g, simgpu::tiny_spec());
  TrafficConfig traffic;
  traffic.duration = 0.5;
  traffic.rate = 1000.0;
  traffic.deadline = 2.0e-4;  // tighter than tiny_spec service time
  const auto trace = generate_trace(traffic);

  ServerConfig config;
  config.batch = {4, 1.0e-3};
  config.queue_capacity = 16;
  config.device = simgpu::tiny_spec();
  Server server(g, s, config);
  const ServingReport report = server.serve(trace);
  EXPECT_EQ(report.slo_tracked, report.offered - report.rejected);
  EXPECT_LT(report.slo_attainment(), 1.0);
  EXPECT_GT(report.deadline_expired + (report.slo_tracked - report.slo_met), 0);
  for (const CompletionRecord& r : server.log()) {
    if (r.status == RequestStatus::kDeadlineExpired) {
      EXPECT_LT(r.deadline, r.completion);
      EXPECT_FALSE(r.deadline_met);
    }
  }
}

TEST(Server, FaultedRunCompletesAllAdmittedRequests) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  TrafficConfig traffic;
  traffic.seed = 5;
  traffic.duration = 2.0;
  traffic.rate = 150.0;
  const auto trace = generate_trace(traffic);

  ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 64;
  config.resilient.retry.max_attempts = 8;
  config.resilient.retry.base_backoff = 1.0e-4;
  config.resilient.retry.max_backoff = 1.0e-3;
  config.resilient.retry.jitter = 0.3;
  config.faults.seed = 1234;
  config.faults.fail_with_probability(simgpu::FaultKind::kLaunchFailure, 0.02,
                                      -1);
  Server server(g, s, config);
  const ServingReport report = server.serve(trace);
  EXPECT_EQ(report.rejected, 0);  // light load: nothing shed
  EXPECT_EQ(report.failed, 0);    // retry budget absorbs every fault
  EXPECT_EQ(report.deadline_expired, 0);
  EXPECT_EQ(report.completed, report.admitted);
  EXPECT_GT(report.transient_retries, 0);
}

// The acceptance criterion: with a fixed seed the per-request completion
// log is byte-identical no matter how many replicas serve the trace — even
// under an injected fault plan — because batch cuts are arrival-driven and
// every batch's fault/backoff randomness is salted by batch index, not by
// replica identity or history.
TEST(Server, CompletionLogIsByteIdenticalAcrossReplicaCounts) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  const double service = service_seconds(g, s, 8);

  TrafficConfig traffic;
  traffic.seed = 21;
  traffic.duration = 5.0;
  // Light-load regime: mean inter-arrival many times the batch service
  // time, so no batch ever waits on a busy replica and the replica count
  // cannot perturb cut times.
  traffic.rate = 1.0 / (20.0 * (service + 4.0e-3));
  traffic.deadline = 0.25;
  const auto trace = generate_trace(traffic);
  ASSERT_GT(trace.size(), 10u);

  ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 64;
  config.resilient.retry.max_attempts = 6;
  config.resilient.retry.base_backoff = 1.0e-4;
  config.resilient.retry.max_backoff = 5.0e-4;
  config.resilient.retry.jitter = 0.5;
  config.faults.seed = 77;
  config.faults.fail_with_probability(simgpu::FaultKind::kLaunchFailure, 0.05,
                                      -1);

  auto run = [&](int replicas) {
    ServerConfig c = config;
    c.replicas = replicas;
    Server server(g, s, c);
    server.serve(trace);
    return Server::log_to_csv(server.log());
  };
  const std::string one = run(1);
  const std::string again = run(1);
  const std::string three = run(3);
  EXPECT_EQ(one, again);   // run-to-run determinism
  EXPECT_EQ(one, three);   // replica-count invariance
  EXPECT_NE(one.find("id,status,arrival_ns"), std::string::npos);
  EXPECT_EQ(one.find("replica"), std::string::npos);
}

TEST(Server, Validation) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  ServerConfig config;
  config.replicas = 0;
  EXPECT_THROW(Server(g, s, config), ConfigError);
}

TEST(Server, RecordsCounterSamplesIntoTrace) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  TrafficConfig traffic;
  traffic.duration = 1.0;
  traffic.rate = 200.0;
  profiler::Recorder recorder;
  ServerConfig config;
  Server server(g, s, config, &recorder);
  server.serve(generate_trace(traffic));

  bool saw_depth = false;
  bool saw_batch = false;
  for (const auto& sample : recorder.counter_samples()) {
    saw_depth = saw_depth || sample.name == "serve.queue_depth";
    saw_batch = saw_batch || sample.name == "serve.batch_size";
  }
  EXPECT_TRUE(saw_depth);
  EXPECT_TRUE(saw_batch);
  const std::string trace_json = profiler::to_chrome_trace(recorder);
  EXPECT_NE(trace_json.find("serve.queue_depth"), std::string::npos);
  EXPECT_NE(trace_json.find("\"ph\": \"C\""), std::string::npos);
}

// Two servers on concurrent threads: exercises the shared profiler counter
// registry under tsan and checks concurrency does not change results.
TEST(Server, ConcurrentServersMatchSerialRuns) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  TrafficConfig traffic;
  traffic.duration = 1.0;
  traffic.rate = 300.0;
  const auto trace = generate_trace(traffic);

  auto serve_once = [&]() {
    ServerConfig config;
    config.batch = {4, 2.0e-3};
    Server server(g, s, config);
    server.serve(trace);
    return Server::log_to_csv(server.log());
  };
  const std::string expected = serve_once();
  std::string from_a;
  std::string from_b;
  std::thread ta([&] { from_a = serve_once(); });
  std::thread tb([&] { from_b = serve_once(); });
  ta.join();
  tb.join();
  EXPECT_EQ(from_a, expected);
  EXPECT_EQ(from_b, expected);
}

}  // namespace
}  // namespace dcn::serve
