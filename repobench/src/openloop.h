#ifndef REPOBENCH_OPENLOOP_H_
#define REPOBENCH_OPENLOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace repobench {

/// Time source of the load drivers; a fake one lets selftest.cc stall an
/// operation without sleeping.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual int64_t NowNs() = 0;
  virtual void SleepUntilNs(int64_t t) = 0;
};

class SteadyClock final : public Clock {
 public:
  int64_t NowNs() override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void SleepUntilNs(int64_t t) override {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t)));
  }
};

/// Manual time: sleeping jumps the clock forward, Advance models work.
class FakeClock final : public Clock {
 public:
  int64_t NowNs() override { return now_.load(); }
  void SleepUntilNs(int64_t t) override {
    int64_t cur = now_.load();
    while (cur < t && !now_.compare_exchange_weak(cur, t)) {
    }
  }
  void Advance(int64_t ns) { now_.fetch_add(ns); }

 private:
  std::atomic<int64_t> now_{0};
};

/// When one open-loop operation was due, sent and done.
struct OpTiming {
  int64_t scheduled_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  /// From scheduled arrival, so time an operation spent queued behind a
  /// stalled one counts against it.
  int64_t LatencyNs() const { return end_ns - scheduled_ns; }
  /// How late the generator sent it.
  int64_t LatenessNs() const { return start_ns - scheduled_ns; }
  /// From send: what the op itself took, retries and backoff included.
  int64_t ServiceNs() const { return end_ns - start_ns; }
};

/// Open loop: operation i is due at `start_ns + i / rate`. Each of
/// `sessions` threads takes the next operation in index order, waits until
/// it is due, and runs it, so a stalled session delays only what it holds
/// while the others keep the schedule. Returns the timing of every
/// operation, indexed by operation.
inline std::vector<OpTiming> RunOpenLoop(
    Clock& clock, int64_t count, double rate, int sessions, int64_t start_ns,
    const std::function<void(int session, int64_t index)>& op) {
  std::vector<OpTiming> timings(static_cast<size_t>(count));
  std::atomic<int64_t> next{0};
  const double interval_ns = 1e9 / rate;
  auto worker = [&](int session) {
    for (;;) {
      const int64_t i = next.fetch_add(1);
      if (i >= count) return;
      OpTiming& t = timings[static_cast<size_t>(i)];
      t.scheduled_ns =
          start_ns + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
      clock.SleepUntilNs(t.scheduled_ns);
      t.start_ns = clock.NowNs();
      op(session, i);
      t.end_ns = clock.NowNs();
    }
  };
  std::vector<std::thread> threads;
  for (int s = 1; s < sessions; ++s) threads.emplace_back(worker, s);
  worker(0);
  for (std::thread& t : threads) t.join();
  return timings;
}

}  // namespace repobench

#endif  // REPOBENCH_OPENLOOP_H_
