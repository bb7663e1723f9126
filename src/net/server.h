#ifndef SEMCOR_NET_SERVER_H_
#define SEMCOR_NET_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "load/histogram.h"
#include "net/event_loop.h"
#include "net/wire.h"
#include "sem/check/advisor.h"
#include "sem/check/incremental.h"
#include "txn/txn.h"
#include "txn/interpreter.h"
#include "wal/wal.h"
#include "workload/workload.h"

namespace semcor::net {

struct ServerOptions {
  std::string workload = "banking";  ///< banking|payroll|orders|orders_unique|tpcc
  /// TPC-C sizing (used only when workload == "tpcc"): warehouses plus the
  /// per-warehouse district/customer/stock-item counts.
  int tpcc_warehouses = 2;
  int tpcc_districts = 2;
  int tpcc_customers = 8;
  int tpcc_items = 16;
  uint16_t port = 0;                 ///< 0 = kernel-assigned ephemeral port
  int workers = 4;                   ///< fixed worker pool size
  /// Admission control: BEGIN is rejected with kBusy (retry-after) once this
  /// many transactions are in flight, so overload degrades to client backoff
  /// instead of lock-queue collapse.
  int max_inflight_txns = 64;
  /// Parsed-but-unserved frames buffered per session; beyond it the loop
  /// answers kBusy directly (per-session backpressure for pipelined clients).
  size_t session_queue_limit = 8;
  /// Consecutive blocked step attempts before the server force-aborts the
  /// transaction as a deadlock victim (bounded-wait resolution — the
  /// network analogue of DeadlockPolicyKind::kBoundedWait). Steps use
  /// try-locks, so a cross-session deadlock surfaces as every participant
  /// retrying forever; this bound turns that into one victim abort.
  int blocked_abort_threshold = 64;
  uint32_t retry_after_ms = 1;       ///< suggested backoff after kBlocked
  uint32_t busy_retry_after_ms = 5;  ///< suggested backoff after kBusy
  uint64_t seed = 42;                ///< server-side instance draws
  size_t lock_shards = 0;            ///< 0 = LockManager default
  /// Write-ahead-log directory; empty = memory-only (no durability). When
  /// set, Start() recovers whatever a previous incarnation left there before
  /// serving, and COMMIT acknowledgements wait for the commit record's
  /// fsync (see wal_fsync).
  std::string wal_dir;
  /// Fsync policy: "none" | "per_commit" | "group" (group commit).
  std::string wal_fsync = "group";
  /// Group-commit epoch length in microseconds.
  uint32_t group_commit_us = 100;
  /// Reaction to a failed WAL fsync: "panic" (freeze the log, refuse acks,
  /// stop serving) or "degrade" (keep serving without durability claims).
  std::string wal_fsync_failure = "panic";
  /// Deterministic disk-fault plan spec ("seed:N[:p...]"), empty = none.
  std::string disk_faults;
  /// Deadlines, monotonic-clock microseconds; 0 disables. stmt_timeout_us
  /// caps one statement's cumulative blocked time; txn_timeout_us caps
  /// BEGIN→decision; idle_timeout_us reaps sessions with no inbound frames
  /// (including sessions parked mid-transaction holding locks).
  uint64_t stmt_timeout_us = 0;
  uint64_t txn_timeout_us = 0;
  uint64_t idle_timeout_us = 0;
  /// Drain: how long RequestDrain waits for in-flight transactions before
  /// forcing the stop anyway.
  uint64_t drain_timeout_us = 5'000'000;
};

/// Counter snapshot returned by Server::Metrics and serialized (plus derived
/// gauges) into the STATS response. The committed/aborted/deadlocks/
/// fcw_conflicts/retries_exhausted names deliberately mirror ExecStats so
/// tests can equate server counters with in-process runs of the same
/// workload; blocked_retries/deadlock_victims mirror StepDriver's
/// blocked_steps()/deadlock_victims().
struct ServerMetricsSnapshot {
  long sessions_accepted = 0;
  long sessions_closed = 0;
  long frames_in = 0;
  long frames_out = 0;
  long protocol_errors = 0;
  long admission_rejected = 0;  ///< BEGINs turned away at the inflight cap
  long queue_rejected = 0;      ///< frames turned away at the session queue cap
  long negotiated_begins = 0;
  long blocked_retries = 0;   ///< step attempts that found a lock conflict
  long deadlock_victims = 0;  ///< bounded-wait forced aborts
  long fcw_conflicts = 0;     ///< first-committer-wins aborts
  long deadlocks = 0;         ///< deadlock-coded aborts (victims included)
  long retries_exhausted = 0; ///< always 0: retry is the client's job
  long inflight = 0;
  long inflight_peak = 0;
  long queue_depth_peak = 0;  ///< worker-queue high-water mark
  long stmt_timeouts = 0;     ///< statements aborted at --stmt-timeout
  long txn_timeouts = 0;      ///< transactions aborted at --txn-timeout
  long idle_timeouts = 0;     ///< sessions reaped at --idle-timeout
  long commit_acks_refused = 0;  ///< commits applied but not durable (kNotDurable)
  long drain_rejects = 0;        ///< BEGINs refused while draining
  std::array<long, kIsoLevelCount> begins{};
  std::array<long, kIsoLevelCount> commits{};
  std::array<long, kIsoLevelCount> aborts{};
  /// What the advisor recommends for each BEGIN's type, counted per level —
  /// including sessions that requested an explicit level. In a mixed-level
  /// run this keeps per-level abort attribution honest: an explicit session
  /// flagged advisor_correct=false still shows up under the level the §5
  /// analysis would have negotiated.
  std::array<long, kIsoLevelCount> advisor_recommended{};
  long advisor_overridden = 0;  ///< explicit BEGINs whose level != recommended
  load::Histogram latency_us;  ///< BEGIN→commit, committed txns only

  /// Per-transaction-type split of the same lifecycle counters, keyed by
  /// the type resolved at BEGIN (after any server-side mix draw).
  struct TypeMetrics {
    long begins = 0;
    std::array<long, kIsoLevelCount> commits{};
    std::array<long, kIsoLevelCount> aborts{};
    load::Histogram latency_us;  ///< committed txns only
  };
  std::map<std::string, TypeMetrics> per_type;

  long Committed() const;
  long Aborted() const;
};

/// Multi-client transaction server: exposes one workload's transaction types
/// over the wire protocol of net/wire.h. A poll(2) event loop owns the
/// sockets and framing; parsed requests are dispatched onto a fixed worker
/// pool (one in-flight request per session, FIFO per session); workers drive
/// the shared TxnManager with try-lock steps so no worker ever parks inside
/// the lock manager — a blocked statement becomes a kBlocked response with a
/// retry-after hint, and persistent blocking becomes a bounded-wait victim
/// abort. BEGIN negotiates the isolation level per session: an explicit
/// level is honoured (and flagged when the static analysis rejects it), and
/// kNegotiateLevel runs the paper's §5 procedure from an IncrementalAdvisor
/// whose memoized pair cache is computed at startup (and stays warm for any
/// future workload edits).
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, precomputes the advisor cache, spawns the loop thread
  /// and the worker pool. On success port() is the bound port.
  Status Start();

  /// Graceful stop: stops the loop, joins all threads, force-aborts any
  /// in-flight transactions, closes every socket. Idempotent.
  void Stop();

  /// Async-signal-safe stop request (atomic flag + self-pipe write): the
  /// loop thread winds down on its own and WaitUntilStopped returns. Stop()
  /// must still be called (from normal context) to join the threads.
  void RequestStop() { loop_.Stop(); }

  /// Async-signal-safe graceful drain (SIGTERM): stop accepting, refuse new
  /// BEGINs with kShuttingDown, let in-flight transactions finish (up to
  /// drain_timeout_us, then force), then stop the loop. Stop() must still be
  /// called to join threads, write the final checkpoint, and close the WAL.
  void RequestDrain() {
    draining_.store(true, std::memory_order_release);
    loop_.Wakeup();
  }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Non-OK once the WAL froze on a device error under the panic policy;
  /// serverd exits non-zero with this reason.
  Status WalFailure() const;

  /// Blocks until the server stops serving — via Stop(), a client SHUTDOWN
  /// request, or a fatal loop error. Stop() must still be called to join.
  void WaitUntilStopped();

  bool serving() const { return serving_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }

  ServerMetricsSnapshot Metrics() const;

  /// Evaluates the workload's consistency constraint I against the current
  /// committed store state. Exact when the server is quiescent (STATS after
  /// clients drained); advisory under load.
  bool InvariantHolds() const;

  /// What WAL recovery did at Start() (all zeros when running memory-only
  /// or on a fresh log).
  const wal::RecoveryResult& Recovery() const { return recovery_; }

 private:
  struct Session;
  struct MetricsState;

  // --- loop thread ---
  void OnAccept();
  void OnSessionIo(const std::shared_ptr<Session>& session, bool readable,
                   bool writable);
  // Both take the session by value: CloseSession erases the sessions_ map
  // entry, which destroys the shared_ptr stored there — a caller passing a
  // reference into the map would hand us a pointer that dies mid-call.
  void TryFlush(std::shared_ptr<Session> session);
  void CloseSession(std::shared_ptr<Session> session);
  void OnWakeup();
  /// Periodic loop-thread pass: reaps idle sessions, marks expired
  /// transaction deadlines for their workers, and (while draining) stops
  /// the loop once nothing is in flight. Reschedules itself.
  void SweepDeadlines();
  /// First OnWakeup after RequestDrain: close the listener, arm the drain
  /// deadline, and start sweeping.
  void BeginDrain();

  // --- worker threads ---
  void WorkerMain();
  void ServeSession(const std::shared_ptr<Session>& session);
  std::string Dispatch(Session& session, const Frame& frame);
  std::string HandleHello(Session& session, const Frame& frame);
  std::string HandleBegin(Session& session, const Frame& frame);
  std::string HandleStep(Session& session, uint32_t max_steps,
                         bool stop_before_commit);
  std::string HandleAbort(Session& session);
  /// Worker-side handling of a sweep-marked transaction deadline: force-
  /// aborts the run and emits the unsolicited TIMEOUT frame.
  std::string HandleTimeout(Session& session, uint8_t kind,
                            const std::string& detail);
  std::string BuildStats();

  // --- shared ---
  void EnqueueWork(const std::shared_ptr<Session>& session);
  void RequestFlush(int fd);
  /// Releases a session's transaction (force-abort) exactly once; called on
  /// disconnect by whichever side (loop or worker) turns the session idle.
  void ReleaseTxn(Session& session, const char* reason);
  std::string FinishTxn(Session& session, StepOutcome outcome,
                        uint32_t steps);

  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  Workload workload_;
  Store store_;
  LockManager locks_;
  TxnManager mgr_{&store_, &locks_};
  std::unique_ptr<wal::WriteAheadLog> wal_;
  wal::RecoveryResult recovery_;
  /// Incremental §5 checker: hash-consed decision memo + per-(pair, level)
  /// obligation cache, built once at Start(). Kept alive (not a startup
  /// temporary) so a re-registered type re-checks O(K) pairs, not O(K²).
  std::unique_ptr<IncrementalAdvisor> advisor_;
  /// Startup advisor cache: type name → advice (negotiation + verdicts).
  std::map<std::string, LevelAdvice> advice_;

  EventLoop loop_;
  std::thread loop_thread_;
  std::map<int, std::shared_ptr<Session>> sessions_;  // loop thread only
  uint64_t next_session_id_ = 1;                      // loop thread only

  std::vector<std::thread> workers_;
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Session>> work_queue_;
  bool work_stop_ = false;

  std::mutex flush_mu_;
  std::vector<int> flush_fds_;

  std::unique_ptr<MetricsState> metrics_;

  std::atomic<bool> serving_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> draining_{false};
  bool drain_started_ = false;  // loop thread only
  bool sweep_scheduled_ = false;  // loop thread only
  bool started_ = false;
  bool stopped_joined_ = false;
  std::mutex state_mu_;
  std::condition_variable state_cv_;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace semcor::net

#endif  // SEMCOR_NET_SERVER_H_
