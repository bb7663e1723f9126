#ifndef REPOBENCH_TRACE_H_
#define REPOBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace repobench {

/// Client-side span kinds, nested op > attempt > begin / stmt / commit /
/// backoff. Spans are recorded only around calls into the client library.
enum class SpanKind : uint8_t { kOp, kAttempt, kBegin, kStmt, kCommit, kBackoff };
inline constexpr int kSpanKinds = 6;
inline const char* SpanName(SpanKind k) {
  static constexpr std::array<const char*, kSpanKinds> kNames = {
      "op", "attempt", "begin", "stmt", "commit", "backoff"};
  return kNames[static_cast<size_t>(k)];
}

inline int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  SpanKind kind;
  int32_t parent;  ///< index of the enclosing span in the same log, -1 = root
  int64_t start_ns;
  int64_t end_ns;
};

/// Spans of one session thread, kept in memory until the run ends. A
/// disabled log records nothing and costs one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int32_t Open(SpanKind kind, int32_t parent) {
    if (!enabled_) return -1;
    spans_.push_back(Span{kind, parent, MonoNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = MonoNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, SpanKind kind, int32_t parent)
      : log_(log), id_(log.Open(kind, parent)) {}
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog& log_;
  int32_t id_;
};

/// Per-kind aggregate over every session's spans. Self time is a span's
/// duration minus the part its child spans cover.
struct SpanSummary {
  int64_t count = 0;
  double self_us = 0;
  double p50_us = 0;
  double p99_us = 0;
};

inline std::array<SpanSummary, kSpanKinds> Summarize(
    const std::vector<const SpanLog*>& logs) {
  std::array<std::vector<double>, kSpanKinds> durations;
  std::array<SpanSummary, kSpanKinds> out{};
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_us(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_us[static_cast<size_t>(s.parent)] += NsToUs(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const size_t k = static_cast<size_t>(spans[i].kind);
      const double us = NsToUs(spans[i].end_ns - spans[i].start_ns);
      durations[k].push_back(us);
      out[k].count++;
      out[k].self_us += us - child_us[i];
    }
  }
  for (size_t k = 0; k < durations.size(); ++k) {
    out[k].p50_us = Percentile(durations[k], 50);
    out[k].p99_us = Percentile(durations[k], 99);
  }
  return out;
}

}  // namespace repobench

#endif  // REPOBENCH_TRACE_H_
