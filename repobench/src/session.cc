#include "session.h"

#include <chrono>
#include <thread>

namespace repobench {

namespace {

semcor::net::ClientOptions Options(uint16_t port, uint64_t backoff_seed) {
  semcor::net::ClientOptions o;
  o.port = port;
  o.client_name = "repobench";
  o.backoff_seed = backoff_seed;
  return o;
}

}  // namespace

WireSession::WireSession(uint16_t port, uint64_t backoff_seed, bool trace)
    : client_(Options(port, backoff_seed)), spans_(trace) {}

semcor::Status WireSession::Connect() {
  semcor::Status s = client_.Connect();
  if (!s.ok()) return s;
  return client_.Hello().status();
}

void WireSession::Backoff(int32_t parent, uint32_t ms) {
  ScopedSpan span(spans_, SpanKind::kBackoff, parent);
  counters_.backoff_ms += ms;
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool WireSession::Run(const TxnOp& op, uint8_t level, uint8_t* granted) {
  using semcor::net::StepResp;
  using semcor::net::StepWire;
  counters_.ops++;
  if (broken_) {
    counters_.failed++;
    return false;
  }
  ScopedSpan op_span(spans_, SpanKind::kOp, -1);
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ScopedSpan at(spans_, SpanKind::kAttempt, op_span.id());
    // Consecutive BUSY / kBlocked replies drive the exponential backoff;
    // progress resets it, as in the client library's own RunTxn.
    int waits = 0;
    for (;;) {
      auto begin = [&] {
        ScopedSpan s(spans_, SpanKind::kBegin, at.id());
        return client_.Begin(op.type, level, op.params);
      }();
      counters_.round_trips++;
      if (!begin.ok()) {
        broken_ = !client_.connected();
        counters_.failed++;
        return false;
      }
      if (begin.value().admitted) {
        *granted = begin.value().resp.level;
        break;
      }
      if (waits >= kMaxAttempts) {
        counters_.failed++;
        return false;
      }
      Backoff(at.id(),
              client_.NextBackoffMs(waits++, begin.value().retry_after_ms));
    }
    counters_.attempts++;
    waits = 0;
    bool committing = false;
    for (;;) {
      auto step = [&] {
        ScopedSpan s(spans_, committing ? SpanKind::kCommit : SpanKind::kStmt,
                     at.id());
        return committing ? client_.Commit() : client_.Stmt();
      }();
      counters_.round_trips++;
      if (!step.ok()) {
        broken_ = true;
        counters_.failed++;
        return false;
      }
      const StepResp& r = step.value();
      const auto outcome = static_cast<StepWire>(r.outcome);
      if (outcome == StepWire::kCommitted) return true;
      if (outcome == StepWire::kAborted) break;  // retry the transaction
      if (outcome == StepWire::kBlocked) {
        Backoff(at.id(), client_.NextBackoffMs(waits++, r.retry_after_ms));
        continue;
      }
      waits = 0;
      if (outcome == StepWire::kBodyDone) committing = true;
    }
  }
  counters_.failed++;
  return false;
}

}  // namespace repobench
