#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/str_util.h"

namespace semcor::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(StrCat(what, ": ", std::strerror(errno)));
}

Status Unexpected(const Frame& frame) {
  if (frame.type == MsgType::kError) {
    Result<ErrorResp> err = ErrorResp::Decode(frame.payload);
    if (err.ok()) {
      if (err.value().code ==
          static_cast<uint16_t>(WireError::kShuttingDown)) {
        return Status::Aborted(StrCat("server draining: ",
                                      err.value().message));
      }
      return Status::InvalidArgument(
          StrCat("server error ", err.value().code, ": ",
                 err.value().message));
    }
  }
  return Status::Internal(
      StrCat("unexpected frame ", MsgTypeName(frame.type)));
}

/// SplitMix64 — the same mixer the server-side fault plans use, so client
/// jitter is reproducible from the seed alone.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Client::~Client() { Close(); }

Status Client::Connect() {
  if (fd_ >= 0) return Status::Internal("already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.recv_timeout_ms / 1000;
    tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument(StrCat("bad host '", options_.host, "'"));
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Errno("connect");
    Close();
    return s;
  }
  return Status::Ok();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::SendRaw(const std::string& bytes) {
  if (fd_ < 0) return Status::Internal("not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status Client::SendFrame(MsgType type, const std::string& payload) {
  return SendRaw(EncodeFrame(type, payload));
}

Status Client::RecvFrame(Frame* out) {
  if (fd_ < 0) return Status::Internal("not connected");
  for (;;) {
    switch (parser_.Pop(out)) {
      case FrameParser::PopResult::kFrame:
        return Status::Ok();
      case FrameParser::PopResult::kError:
        return Status::InvalidArgument(StrCat("frame error: ",
                                              parser_.error()));
      case FrameParser::PopResult::kNeedMore:
        break;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      parser_.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::Aborted("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Internal("receive timeout");
    }
    return Errno("recv");
  }
}

uint32_t Client::NextBackoffMs(int attempt, uint32_t server_hint_ms) {
  // Lazy-seed the jitter stream so the schedule is a pure function of
  // backoff_seed — independent of whether (or how often) Connect ran.
  if (backoff_state_ == 0) backoff_state_ = Mix(options_.backoff_seed) | 1;
  const uint64_t base = options_.backoff_base_ms > 0 ? options_.backoff_base_ms : 1;
  const uint64_t cap = options_.backoff_max_ms > 0 ? options_.backoff_max_ms : 1;
  const int shift = attempt < 16 ? attempt : 16;
  const uint64_t ceiling = std::min<uint64_t>(base << shift, cap);
  // Equal-jitter: [ceiling/2, ceiling], so retries neither synchronize
  // (full determinism per client, decorrelated across seeds) nor collapse
  // to zero sleep.
  backoff_state_ = Mix(backoff_state_);
  const uint64_t half = ceiling / 2;
  const uint64_t span = ceiling - half + 1;
  uint64_t ms = half + backoff_state_ % span;
  if (ms < server_hint_ms) ms = server_hint_ms;
  if (ms == 0) ms = 1;
  return static_cast<uint32_t>(ms);
}

Result<Frame> Client::Call(MsgType type, const std::string& payload) {
  if (Status s = SendFrame(type, payload); !s.ok()) return s;
  for (;;) {
    Frame frame;
    if (Status s = RecvFrame(&frame); !s.ok()) return s;
    if (frame.type != MsgType::kTimeout) return frame;
    Result<TimeoutResp> timeout = TimeoutResp::Decode(frame.payload);
    if (!timeout.ok()) return timeout.status();
    switch (static_cast<TimeoutKind>(timeout.value().what)) {
      case TimeoutKind::kStatement:
        // The server aborted the statement we were waiting on: this frame
        // IS the response.
        timed_out_ = true;
        return frame;
      case TimeoutKind::kTxn:
        // Unsolicited (the sweep aborted between our frames); the response
        // to the request we just sent is still on the wire behind it.
        timed_out_ = true;
        continue;
      case TimeoutKind::kIdle:
        return Status::Timeout(
            StrCat("session reaped: ", timeout.value().detail));
    }
    return Status::Internal("bad TIMEOUT kind");
  }
}

Result<HelloResp> Client::Hello() {
  HelloReq req;
  req.client_name = options_.client_name;
  Result<Frame> frame = Call(MsgType::kHello, req.Encode());
  if (!frame.ok()) return frame.status();
  if (frame.value().type != MsgType::kHelloOk) return Unexpected(frame.value());
  return HelloResp::Decode(frame.value().payload);
}

Result<BeginResult> Client::Begin(
    const std::string& txn_type, uint8_t level,
    const std::vector<std::pair<std::string, int64_t>>& params) {
  BeginReq req;
  req.txn_type = txn_type;
  req.requested_level = level;
  req.params = params;
  Result<Frame> frame = Call(MsgType::kBegin, req.Encode());
  if (!frame.ok()) return frame.status();
  BeginResult result;
  if (frame.value().type == MsgType::kBusy) {
    Result<BusyResp> busy = BusyResp::Decode(frame.value().payload);
    if (!busy.ok()) return busy.status();
    result.retry_after_ms = busy.value().retry_after_ms;
    return result;  // admitted == false
  }
  if (frame.value().type != MsgType::kBeginOk) return Unexpected(frame.value());
  Result<BeginResp> resp = BeginResp::Decode(frame.value().payload);
  if (!resp.ok()) return resp.status();
  result.admitted = true;
  result.resp = resp.take();
  return result;
}

namespace {

/// Shared tail for STMT/COMMIT/ABORT: a step report, or one of the frames
/// that fold into it — BUSY (session queue backpressure) becomes kBlocked;
/// a statement TIMEOUT becomes kAborted; a kNotDurable error becomes
/// kAborted too, because whatever the live store did, the server would not
/// promise the commit survives a crash and the client must not count it.
Result<StepResp> AsStepReport(const Frame& frame) {
  if (frame.type == MsgType::kBusy) {
    Result<BusyResp> busy = BusyResp::Decode(frame.payload);
    if (!busy.ok()) return busy.status();
    StepResp blocked;
    blocked.outcome = static_cast<uint8_t>(StepWire::kBlocked);
    blocked.retry_after_ms = busy.value().retry_after_ms;
    blocked.detail = busy.value().reason;
    return blocked;
  }
  if (frame.type == MsgType::kTimeout) {
    Result<TimeoutResp> timeout = TimeoutResp::Decode(frame.payload);
    if (!timeout.ok()) return timeout.status();
    StepResp aborted;
    aborted.outcome = static_cast<uint8_t>(StepWire::kAborted);
    aborted.detail = timeout.value().detail;
    return aborted;
  }
  if (frame.type == MsgType::kError) {
    Result<ErrorResp> err = ErrorResp::Decode(frame.payload);
    if (err.ok() &&
        err.value().code == static_cast<uint16_t>(WireError::kNotDurable)) {
      StepResp aborted;
      aborted.outcome = static_cast<uint8_t>(StepWire::kAborted);
      aborted.detail = err.value().message;
      return aborted;
    }
  }
  if (frame.type != MsgType::kStepReport) return Unexpected(frame);
  return StepResp::Decode(frame.payload);
}

}  // namespace

Result<StepResp> Client::Stmt(uint32_t max_steps) {
  StmtReq req;
  req.max_steps = max_steps;
  Result<Frame> frame = Call(MsgType::kStmt, req.Encode());
  if (!frame.ok()) return frame.status();
  return AsStepReport(frame.value());
}

Result<StepResp> Client::Commit() {
  Result<Frame> frame = Call(MsgType::kCommit, "");
  if (!frame.ok()) return frame.status();
  return AsStepReport(frame.value());
}

Result<StepResp> Client::Abort() {
  Result<Frame> frame = Call(MsgType::kAbort, "");
  if (!frame.ok()) return frame.status();
  return AsStepReport(frame.value());
}

Result<StatsResp> Client::Stats() {
  Result<Frame> frame = Call(MsgType::kStats, "");
  if (!frame.ok()) return frame.status();
  if (frame.value().type != MsgType::kStatsOk) return Unexpected(frame.value());
  return StatsResp::Decode(frame.value().payload);
}

Status Client::Shutdown() {
  Result<Frame> frame = Call(MsgType::kShutdown, "");
  if (!frame.ok()) return frame.status();
  if (frame.value().type != MsgType::kShutdownOk) {
    return Unexpected(frame.value());
  }
  return Status::Ok();
}

Result<TxnResult> Client::RunTxn(
    const std::string& txn_type, uint8_t level,
    const std::vector<std::pair<std::string, int64_t>>& params,
    int max_busy_retries) {
  TxnResult result;
  timed_out_ = false;
  // Consecutive-retry counter drives the exponential; any real progress
  // resets it so a long transaction is not punished for early contention.
  int attempt = 0;
  auto backoff = [&](uint32_t server_hint_ms) {
    const uint32_t ms = NextBackoffMs(attempt++, server_hint_ms);
    result.backoff_ms += ms;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };

  // BEGIN, absorbing admission-control pushback.
  for (;;) {
    Result<BeginResult> begin = Begin(txn_type, level, params);
    if (!begin.ok()) return begin.status();
    if (begin.value().admitted) {
      const BeginResp& resp = begin.value().resp;
      result.txn_type = resp.txn_type;
      result.level = resp.level;
      result.negotiated = resp.negotiated;
      result.advisor_correct = resp.advisor_correct;
      break;
    }
    if (++result.busy_retries > max_busy_retries) {
      return Status::Aborted("server busy: admission retries exhausted");
    }
    backoff(begin.value().retry_after_ms);
  }
  attempt = 0;

  // Step the body, then commit. kBlocked and BUSY both mean "retry after a
  // nap"; the server's bounded-wait policy (and, with deadlines enabled,
  // the statement timeout) guarantees this terminates.
  bool committing = false;
  for (;;) {
    Result<StepResp> step = committing ? Commit() : Stmt();
    if (!step.ok()) return step.status();
    const StepResp& r = step.value();
    switch (static_cast<StepWire>(r.outcome)) {
      case StepWire::kRunning:
        attempt = 0;
        break;
      case StepWire::kBlocked:
        result.blocked_retries++;
        backoff(r.retry_after_ms);
        break;
      case StepWire::kBodyDone:
        attempt = 0;
        committing = true;
        break;
      case StepWire::kCommitted:
      case StepWire::kAborted:
        result.committed =
            static_cast<StepWire>(r.outcome) == StepWire::kCommitted;
        result.detail = r.detail;
        result.timed_out = timed_out_;
        return result;
    }
  }
}

}  // namespace semcor::net
