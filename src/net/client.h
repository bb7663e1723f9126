#ifndef SEMCOR_NET_CLIENT_H_
#define SEMCOR_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace semcor::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Receive timeout. Every blocking call fails instead of hanging, so a
  /// wedged server turns into a test failure, not a stuck CI job.
  int recv_timeout_ms = 20000;
  std::string client_name = "semcor-client";
  /// RunTxn retry backoff: exponential from base to max (doubling per
  /// consecutive BUSY/kBlocked), with deterministic jitter drawn from
  /// backoff_seed so a fixed seed replays the identical sleep sequence.
  /// The server's retry-after hint always acts as a floor.
  uint32_t backoff_base_ms = 1;
  uint32_t backoff_max_ms = 64;
  uint64_t backoff_seed = 1;
};

/// BEGIN outcome: either a transaction slot (resp valid) or a backpressure
/// signal (admitted == false, retry after the hint).
struct BeginResult {
  bool admitted = false;
  uint32_t retry_after_ms = 0;
  BeginResp resp;
};

/// End-to-end outcome of one RunTxn call.
struct TxnResult {
  bool committed = false;
  std::string txn_type;
  uint8_t level = 0;
  bool negotiated = false;
  bool advisor_correct = false;
  std::string detail;        ///< abort reason when !committed
  int busy_retries = 0;      ///< BUSY responses absorbed (admission/queue)
  int blocked_retries = 0;   ///< kBlocked step reports absorbed
  uint64_t backoff_ms = 0;   ///< total retry sleep this call
  bool timed_out = false;    ///< aborted by a server-side deadline
};

/// Blocking client for the semcor transaction server. One connection, one
/// session, strictly request/response — not thread-safe; use one Client per
/// thread (the load generator does exactly that).
class Client {
 public:
  explicit Client(ClientOptions options) : options_(std::move(options)) {}
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// TCP connect only; Hello() completes the protocol handshake.
  Status Connect();
  void Close();
  bool connected() const { return fd_ >= 0; }

  Result<HelloResp> Hello();

  /// level: an IsoLevel index, or kNegotiateLevel for server-side selection.
  /// txn_type empty = server draws from its mix; params empty = random.
  Result<BeginResult> Begin(
      const std::string& txn_type, uint8_t level,
      const std::vector<std::pair<std::string, int64_t>>& params = {});

  Result<StepResp> Stmt(uint32_t max_steps = 64);
  Result<StepResp> Commit();
  Result<StepResp> Abort();
  Result<StatsResp> Stats();
  Status Shutdown();

  /// Drives one transaction to a terminal state: absorbs BUSY (admission or
  /// queue backpressure) and kBlocked reports by sleeping for the server's
  /// retry hint and retrying, steps the body, then commits. Gives up after
  /// `max_busy_retries` consecutive BUSY responses.
  Result<TxnResult> RunTxn(
      const std::string& txn_type, uint8_t level,
      const std::vector<std::pair<std::string, int64_t>>& params = {},
      int max_busy_retries = 1000);

  // --- raw access for protocol tests ---
  Status SendFrame(MsgType type, const std::string& payload);
  Status SendRaw(const std::string& bytes);
  Status RecvFrame(Frame* out);

  /// Next backoff delay for the given consecutive-retry count: exponential
  /// base<<attempt capped at backoff_max_ms, jittered into [half, full] by
  /// the deterministic seed stream, floored at the server's hint. Public so
  /// the jitter schedule is unit-testable without a server.
  uint32_t NextBackoffMs(int attempt, uint32_t server_hint_ms);

 private:
  /// Sends a request and returns its response frame. Unsolicited TIMEOUT
  /// frames (a sweep aborted the transaction between requests) are absorbed
  /// here: statement timeouts ARE the response, transaction timeouts are
  /// noted (timed_out_) and skipped, idle timeouts fail the call — the
  /// server is closing this connection.
  Result<Frame> Call(MsgType type, const std::string& payload);

  ClientOptions options_;
  int fd_ = -1;
  FrameParser parser_;
  uint64_t backoff_state_ = 0;
  bool timed_out_ = false;  ///< an unsolicited TIMEOUT arrived
};

}  // namespace semcor::net

#endif  // SEMCOR_NET_CLIENT_H_
