// Unit tests of the benchmark's own statistics and tracer. Exits non-zero
// on the first failed expectation. Run through `python3 perfbench/run.py
// --self-test`.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

void expect_near(double actual, double expected, const char* what) {
  if (std::fabs(actual - expected) > 1e-9 * std::max(1.0, std::fabs(expected))) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, actual,
                 expected);
    ++g_failures;
  }
}

void test_median() {
  using perfbench::median;
  expect_near(median({}), 0.0, "median of nothing");
  expect_near(median({3.0}), 3.0, "median of one");
  expect_near(median({4.0, 1.0, 3.0}), 3.0, "odd median");
  expect_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "even median");
}

// Expected values are Python's statistics.quantiles(values, n=4).
void test_quartiles() {
  using perfbench::quartiles;
  auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect_near(q.q1, 2.75, "q1 of 1..10");
  expect_near(q.q2, 5.5, "q2 of 1..10");
  expect_near(q.q3, 8.25, "q3 of 1..10");
  q = quartiles({1, 2, 3, 4});
  expect_near(q.q1, 1.25, "q1 of 1..4");
  expect_near(q.q3, 3.75, "q3 of 1..4");
  q = quartiles({3, 1, 2});
  expect_near(q.q1, 1.0, "q1 of 3 values");
  expect_near(q.q3, 3.0, "q3 of 3 values");
  q = quartiles({5.0, 1.0});  // Python extrapolates for two values
  expect_near(q.q1, 0.0, "q1 of 2 values");
  expect_near(q.q2, 3.0, "q2 of 2 values");
  expect_near(q.q3, 6.0, "q3 of 2 values");
  q = quartiles({0.5, 0.25, 4.0, 2.0, 8.0, 1.0, 3.0});
  expect_near(q.q1, 0.5, "q1 unsorted");
  expect_near(q.q2, 2.0, "q2 unsorted");
  expect_near(q.q3, 4.0, "q3 unsorted");
}

void test_tail() {
  using perfbench::tail_summary;
  std::vector<double> v;
  for (int i = 1; i <= 19; ++i) v.push_back(i);
  auto t = tail_summary(v);  // p90 has 1 sample beyond: no tail
  expect_near(t.p50, 10.0, "p50 of 1..19");
  expect_near(t.tail_pct, 0.0, "no tail under 20 samples");
  expect_near(t.tail, 10.0, "tail falls back to p50");
  expect_near(static_cast<double>(t.n), 19.0, "count");

  v.clear();
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  t = tail_summary(v);  // p90 leaves 10 beyond, p99 only 1
  expect_near(t.tail_pct, 90.0, "p90 with 100 samples");
  expect_near(t.tail, 90.0, "p90 value");

  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  t = tail_summary(v);  // p99 leaves exactly 10 beyond
  expect_near(t.tail_pct, 99.0, "p99 with 1000 samples");
  expect_near(t.tail, 990.0, "p99 value");

  t = tail_summary({});
  expect_near(static_cast<double>(t.n), 0.0, "empty count");
  expect_near(perfbench::percentile({5, 1, 4, 2, 3}, 50.0), 3.0,
              "nearest-rank median");
  expect_near(perfbench::percentile({5, 1, 4, 2, 3}, 100.0), 5.0,
              "nearest-rank max");
}

void test_scaling() {
  using perfbench::scale_to_reference;
  // Probe twice the nominal: the host ran at half speed.
  expect_near(scale_to_reference(4.0, 2.0, 4.0), 2.0, "slow host");
  expect_near(scale_to_reference(4.0, 2.0, 1.0), 8.0, "fast host");
  expect_near(scale_to_reference(4.0, 2.0, 2.0), 4.0, "reference host");
  expect_near(scale_to_reference(4.0, 2.0, 0.0), 4.0, "no probe reading");
}

void test_tracer_self_time() {
  perfbench::Tracer t;
  t.set_enabled(true);
  const int outer = t.begin("outer");
  const int inner = t.begin("inner");
  t.end(inner);
  t.end(outer);
  if (t.spans().size() != 2 || t.spans()[1].parent != outer) {
    std::fprintf(stderr, "FAIL span parent links\n");
    ++g_failures;
  }
  if (t.durations("inner", 1.0).size() != 1 ||
      t.durations("missing", 1.0).size() != 0) {
    std::fprintf(stderr, "FAIL durations by name\n");
    ++g_failures;
  }
  if (t.self_time_table().find("outer") == std::string::npos ||
      t.chrome_trace("{}").find("\"parent\": 0") == std::string::npos) {
    std::fprintf(stderr, "FAIL tracer rendering\n");
    ++g_failures;
  }
}

void test_digest() {
  if (perfbench::digest("a") == perfbench::digest("b") ||
      perfbench::digest("abc") != perfbench::digest("abc")) {
    std::fprintf(stderr, "FAIL digest\n");
    ++g_failures;
  }
}

}  // namespace

int main() {
  test_median();
  test_quartiles();
  test_tail();
  test_scaling();
  test_tracer_self_time();
  test_digest();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all passed\n");
  return 0;
}
