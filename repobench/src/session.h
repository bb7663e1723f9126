#ifndef REPOBENCH_SESSION_H_
#define REPOBENCH_SESSION_H_

#include <cstdint>

#include "common/status.h"
#include "gen.h"
#include "net/client.h"
#include "trace.h"

namespace repobench {

/// What one session did, summed over its ops.
struct SessionCounters {
  int64_t ops = 0;
  int64_t failed = 0;
  int64_t attempts = 0;     ///< BEGINs that were admitted, retries included
  int64_t round_trips = 0;  ///< requests sent
  double backoff_ms = 0;    ///< sleeps after BUSY / kBlocked replies

  void Merge(const SessionCounters& o) {
    ops += o.ops;
    failed += o.failed;
    attempts += o.attempts;
    round_trips += o.round_trips;
    backoff_ms += o.backoff_ms;
  }
};

/// One client session against the daemon. An op is one business
/// operation: BEGIN with explicit parameters, STMT until the body is done,
/// COMMIT. After a concurrency abort (FCW, SSI, deadlock victim, timeout)
/// the whole transaction is retried until it commits; BUSY and kBlocked
/// replies are met with the client library's default backoff.
class WireSession {
 public:
  /// Attempts per op before it counts as failed.
  static constexpr int kMaxAttempts = 200;

  WireSession(uint16_t port, uint64_t backoff_seed, bool trace);

  /// Connect + HELLO.
  semcor::Status Connect();

  /// Runs `op` at `level` (an IsoLevel index or kNegotiateLevel) until it
  /// commits. Returns false when the op failed: retry budget exhausted,
  /// transport broken, or the server refused the request. `granted`
  /// receives the level of the committing attempt.
  bool Run(const TxnOp& op, uint8_t level, uint8_t* granted);

  semcor::Result<semcor::net::StatsResp> Stats() { return client_.Stats(); }

  const SessionCounters& counters() const { return counters_; }
  const SpanLog& spans() const { return spans_; }

 private:
  void Backoff(int32_t parent, uint32_t ms);

  semcor::net::Client client_;
  SpanLog spans_;
  SessionCounters counters_;
  bool broken_ = false;
};

}  // namespace repobench

#endif  // REPOBENCH_SESSION_H_
