// Tests of the benchmark's own arithmetic: the percentile against a
// sort-based computation, and the open-loop scheduler's lateness and
// from-scheduled-arrival latency under a stalled fake op. Run with
// `python3 repobench/run.py --selftest`; exits non-zero on a failure.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "gen.h"
#include "openloop.h"
#include "stats.h"

namespace repobench {
namespace {

int g_failures = 0;
int g_checks = 0;

void Expect(bool ok, const char* what, double got, double want) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s: got %.3f, want %.3f\n", what, got, want);
  }
}

void ExpectEq(const char* what, double got, double want) {
  Expect(got == want, what, got, want);
}

/// Nearest rank by full sort, with the rank in exact integer arithmetic:
/// p is given in tenths of a percent.
double SortedPercentile(std::vector<double> v, int64_t p_tenths) {
  std::sort(v.begin(), v.end());
  const int64_t n = static_cast<int64_t>(v.size());
  int64_t rank = (p_tenths * n + 999) / 1000;
  rank = std::clamp<int64_t>(rank, 1, n);
  return v[static_cast<size_t>(rank - 1)];
}

void TestPercentile() {
  Gen g(42);
  for (int64_t n : {1, 2, 3, 10, 99, 100, 101, 999, 1000, 1001, 12345}) {
    std::vector<double> samples;
    // Few distinct values, so ties straddle the ranks.
    for (int64_t i = 0; i < n; ++i) {
      samples.push_back(static_cast<double>(g.Uniform(0, n / 3 + 1)));
    }
    for (int64_t p_tenths : {1, 10, 250, 500, 900, 990, 999, 1000}) {
      ExpectEq("percentile vs sort",
               Percentile(samples, static_cast<double>(p_tenths) / 10.0),
               SortedPercentile(samples, p_tenths));
    }
  }
  ExpectEq("percentile of nothing", Percentile({}, 50), 0);
  // 1000 samples 1..1000: the p99 is the 990th, with ten samples above it.
  std::vector<double> ramp;
  for (int i = 1000; i >= 1; --i) ramp.push_back(i);
  ExpectEq("p99 of 1..1000", Percentile(ramp, 99), 990);
  ExpectEq("p50 of 1..1000", Percentile(ramp, 50), 500);
}

/// One session, fake time: op 3 stalls 5.5 ms at 1000 ops/s, every other
/// op takes 0.1 ms. The ops queued behind the stall are sent late and
/// their latency counts from when they were due.
void TestOpenLoopStallOneSession() {
  constexpr int64_t kMs = 1'000'000;
  FakeClock clock;
  const auto t = RunOpenLoop(clock, 10, 1000.0, 1, 0, [&](int, int64_t i) {
    clock.Advance(i == 3 ? 5 * kMs + kMs / 2 : kMs / 10);
  });
  const int64_t want_lateness[] = {0, 0, 0, 0, 45, 36, 27, 18, 9, 0};
  const int64_t want_latency[] = {1, 1, 1, 55, 46, 37, 28, 19, 10, 1};
  const int64_t want_service[] = {1, 1, 1, 55, 1, 1, 1, 1, 1, 1};
  for (size_t i = 0; i < t.size(); ++i) {
    ExpectEq("scheduled arrival", static_cast<double>(t[i].scheduled_ns),
             static_cast<double>(static_cast<int64_t>(i) * kMs));
    ExpectEq("lateness (0.1 ms)",
             static_cast<double>(t[i].LatenessNs()) / (kMs / 10),
             static_cast<double>(want_lateness[i]));
    ExpectEq("latency (0.1 ms)",
             static_cast<double>(t[i].LatencyNs()) / (kMs / 10),
             static_cast<double>(want_latency[i]));
    ExpectEq("service time (0.1 ms)",
             static_cast<double>(t[i].ServiceNs()) / (kMs / 10),
             static_cast<double>(want_service[i]));
  }
}

/// Two sessions, real time: while one session is stalled on op 1 for
/// 50 ms, the other keeps the schedule, so no later op is sent late.
void TestOpenLoopStallTwoSessions() {
  constexpr int64_t kMs = 1'000'000;
  SteadyClock clock;
  const int64_t start = clock.NowNs() + 5 * kMs;
  const auto t = RunOpenLoop(clock, 20, 1000.0, 2, start, [](int, int64_t i) {
    if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  Expect(t[1].LatencyNs() >= 50 * kMs, "stalled op latency >= 50 ms",
         static_cast<double>(t[1].LatencyNs()) / kMs, 50);
  int64_t worst = 0;
  for (size_t i = 2; i < t.size(); ++i) {
    worst = std::max(worst, t[i].LatenessNs());
  }
  // Scheduler wake-up jitter only; a blocked schedule would be ~50 ms late.
  Expect(worst < 20 * kMs, "other session stays on schedule (ms late)",
         static_cast<double>(worst) / kMs, 0);
}

}  // namespace
}  // namespace repobench

int main() {
  repobench::TestPercentile();
  repobench::TestOpenLoopStallOneSession();
  repobench::TestOpenLoopStallTwoSessions();
  std::printf("repobench selftest: %d/%d checks passed\n",
              repobench::g_checks - repobench::g_failures,
              repobench::g_checks);
  return repobench::g_failures == 0 ? 0 : 1;
}
