// The two server workloads: open-loop load from one process over 4
// sessions against a semcor_serverd child with a WAL, then output checks on
// the WAL recovered into a fresh store, and in a traced run an in-process
// replay of the acknowledged op stream that times each statement kind.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "checks.h"
#include "common/str_util.h"
#include "daemon.h"
#include "gen.h"
#include "lock/lock_manager.h"
#include "net/wire.h"
#include "openloop.h"
#include "session.h"
#include "stats.h"
#include "storage/store.h"
#include "trace.h"
#include "txn/interpreter.h"
#include "txn/txn.h"
#include "wal/wal.h"
#include "workload/workload.h"
#include "workloads.h"

namespace repobench {

namespace {

using semcor::StrCat;

constexpr int kSessions = 4;
/// Acknowledged ops the traced run replays in process (ack order).
constexpr int64_t kReplayOps = 3000;
constexpr int kDaemonStartMs = 60'000;

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "repobench: %s\n", what.c_str());
  std::exit(1);
}

/// An acknowledged op, numbered in the order its commit was acknowledged.
struct Acked {
  int64_t seq = 0;
  TxnOp op;
  uint8_t level = 0;
};

std::vector<std::string> DaemonArgs(const std::string& workload,
                                    const std::string& wal_dir) {
  // --duration-s only bounds a daemon whose driver vanished without
  // killing it; every run kills its daemon long before.
  return {StrCat("--workload=", workload), "--port=0",
          StrCat("--wal-dir=", wal_dir), "--wal-fsync=group",
          "--duration-s=170"};
}

std::vector<std::unique_ptr<WireSession>> Connect(const RunConfig& cfg,
                                                  uint16_t port) {
  std::vector<std::unique_ptr<WireSession>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(std::make_unique<WireSession>(
        port, StreamSeed(cfg.seed, 100 + static_cast<uint64_t>(s)),
        cfg.trace));
    if (semcor::Status st = sessions.back()->Connect(); !st.ok()) {
      Fatal(StrCat("connect: ", st.ToString()));
    }
  }
  return sessions;
}

semcor::net::StatsResp Stats(WireSession& session) {
  auto stats = session.Stats();
  if (!stats.ok()) Fatal(StrCat("STATS: ", stats.status().ToString()));
  return stats.take();
}

double Delta(const semcor::net::StatsResp& before,
             const semcor::net::StatsResp& after, const char* name) {
  return static_cast<double>(after.Counter(name) - before.Counter(name));
}

/// Recovers the daemon's WAL directory into a fresh store through the
/// public recovery API.
semcor::Status Recover(const std::string& wal_dir, semcor::Store* store) {
  std::ifstream in(StrCat(wal_dir, "/wal.log"), std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  const std::string log = bytes.str();
  if (log.empty()) return semcor::Status::NotFound("empty WAL");
  return semcor::wal::RecoverFromBytes(log, store).status;
}

const char* StepKind(const semcor::Stmt* stmt) {
  if (stmt == nullptr) return "commit";
  switch (stmt->kind) {
    case semcor::StmtKind::kRead: return "read";
    case semcor::StmtKind::kWrite: return "write";
    case semcor::StmtKind::kSelectRows: return "select";
    case semcor::StmtKind::kUpdate: return "update";
    case semcor::StmtKind::kInsert: return "insert";
    case semcor::StmtKind::kSelectAgg: return "agg";
    default: return "other";
  }
}

/// The first kReplayOps acknowledged ops run one at a time in process,
/// through Workload::InstantiateWith, ProgramRun::Step and a TxnManager
/// with a group-commit WriteAheadLog attached, at the level the server
/// granted. Serial, so it shows each layer's cost without contention.
void Replay(const semcor::Workload& workload, std::vector<Acked> acked,
            const std::string& wal_dir, RunResult* out) {
  std::sort(acked.begin(), acked.end(),
            [](const Acked& a, const Acked& b) { return a.seq < b.seq; });
  semcor::Store store;
  if (semcor::Status s = workload.setup(&store); !s.ok()) {
    Fatal(StrCat("replay setup: ", s.ToString()));
  }
  semcor::LockManager locks;
  semcor::TxnManager mgr(&store, &locks);
  semcor::wal::RecoveryResult recovery;
  auto wal = semcor::wal::WriteAheadLog::OpenDir(
      wal_dir, &store, semcor::wal::WalOptions{}, &recovery);
  if (!wal.ok()) Fatal(StrCat("replay WAL: ", wal.status().ToString()));
  mgr.SetWal(wal.value().get());

  std::map<std::string, std::vector<double>> step_us;
  std::vector<double> instantiate_us;
  int64_t aborted = 0;
  for (const Acked& a : acked) {
    std::map<std::string, semcor::Value> params;
    for (const auto& [k, v] : a.op.params) params[k] = semcor::Value::Int(v);
    const int64_t t0 = MonoNs();
    auto program = workload.InstantiateWith(a.op.type, params);
    instantiate_us.push_back(NsToUs(MonoNs() - t0));
    semcor::IsoLevel level;
    if (!program || !semcor::IsoLevelFromIndex(a.level, &level)) {
      Fatal(StrCat("replay: cannot run ", a.op.type));
    }
    semcor::ProgramRun run(&mgr, program, level);
    while (!run.Done()) {
      const char* kind = StepKind(run.CurrentStmt());
      const int64_t t = MonoNs();
      run.Step(/*wait=*/true);
      step_us[kind].push_back(NsToUs(MonoNs() - t));
    }
    if (run.outcome() == semcor::StepOutcome::kAborted) aborted++;
  }
  mgr.SetWal(nullptr);
  wal.value()->Stop();
  const semcor::wal::WalStats w = wal.value()->stats();

  for (const char* kind :
       {"read", "write", "select", "update", "insert", "agg", "commit"}) {
    out->layers[StrCat("txn.step_us.", kind)] = Percentile(step_us[kind], 50);
  }
  out->layers["workload.instantiate_us"] = Percentile(instantiate_us, 50);
  out->layers["wal.bytes_per_commit"] =
      Ratio(static_cast<double>(w.bytes_appended),
            static_cast<double>(w.commits_logged));
  out->extra["replay.ops"] = static_cast<double>(acked.size());
  out->extra["replay.aborted"] = static_cast<double>(aborted);
  for (const auto& [kind, samples] : step_us) {
    out->extra[StrCat("replay.step_p99_us.", kind)] = Percentile(samples, 99);
    out->extra[StrCat("replay.steps.", kind)] =
        static_cast<double>(samples.size());
  }
}

/// Client spans and counters, and server STATS deltas, per op.
void WireLayers(const std::vector<std::unique_ptr<WireSession>>& sessions,
                const semcor::net::StatsResp& before,
                const semcor::net::StatsResp& after, RunResult* out) {
  SessionCounters c;
  std::vector<const SpanLog*> logs;
  for (const auto& s : sessions) {
    c.Merge(s->counters());
    logs.push_back(&s->spans());
  }
  const auto spans = Summarize(logs);
  const double ops = static_cast<double>(c.ops);
  auto& l = out->layers;
  l["client.begin_us"] = spans[static_cast<size_t>(SpanKind::kBegin)].p50_us;
  l["client.stmt_us"] = spans[static_cast<size_t>(SpanKind::kStmt)].p50_us;
  l["client.commit_us"] = spans[static_cast<size_t>(SpanKind::kCommit)].p50_us;
  l["client.round_trips_per_op"] = Ratio(static_cast<double>(c.round_trips), ops);
  l["client.backoff_ms_per_op"] = Ratio(c.backoff_ms, ops);
  l["client.attempts_per_op"] = Ratio(static_cast<double>(c.attempts), ops);
  for (int k = 0; k < kSpanKinds; ++k) {
    const SpanSummary& s = spans[static_cast<size_t>(k)];
    const std::string name = SpanName(static_cast<SpanKind>(k));
    out->extra["span." + name + ".count"] = static_cast<double>(s.count);
    out->extra["span." + name + ".p50_us"] = s.p50_us;
    out->extra["span." + name + ".p99_us"] = s.p99_us;
    out->extra["span." + name + ".self_us_per_op"] = Ratio(s.self_us, ops);
  }

  const double committed = Delta(before, after, "committed");
  l["net.queue_depth_peak"] =
      static_cast<double>(after.Counter("queue_depth_peak"));
  l["lock.blocks_per_op"] = Ratio(Delta(before, after, "lock.blocks"), ops);
  l["lock.blocked_retries_per_op"] =
      Ratio(Delta(before, after, "blocked_retries"), ops);
  l["lock.deadlock_victims_per_kop"] =
      Ratio(1000 * Delta(before, after, "deadlock_victims"), ops);
  l["txn.fcw_aborts_per_kop"] =
      Ratio(1000 * Delta(before, after, "fcw_conflicts"), ops);
  l["txn.ssi_aborts_per_kop"] =
      Ratio(1000 * Delta(before, after, "ssi_aborts"), ops);
  l["txn.ssi_false_positive_aborts_per_kop"] =
      Ratio(1000 * Delta(before, after, "ssi_false_positive_aborts"), ops);
  l["wal.commits_per_fsync"] = Ratio(committed, Delta(before, after, "fsyncs"));
  l["wal.appends_per_commit"] =
      Ratio(Delta(before, after, "wal_appends"), committed);
}

/// The daemon's counters over the load, in every run's results file: the
/// STATS requests fall outside the measured window.
void ServerCounters(const semcor::net::StatsResp& before,
                    const semcor::net::StatsResp& after, RunResult* out) {
  for (const auto& [name, value] : after.counters) {
    out->extra["server." + name] =
        static_cast<double>(value - before.Counter(name));
  }
}

/// Recovers the WAL and runs `check` on the store; false on any failure.
template <typename CheckFn>
bool RecoverAndCheck(const std::string& wal_dir, const CheckFn& check) {
  semcor::Store store;
  if (semcor::Status s = Recover(wal_dir, &store); !s.ok()) {
    std::fprintf(stderr, "repobench: WAL recovery failed: %s\n",
                 s.ToString().c_str());
    return false;
  }
  return AllPassed(check(store));
}

/// The measured ops are cut into windows of this many seconds of
/// arrivals; cpu_us_per_op is the median of the windows' CPU per op, not
/// the mean, so a few windows that a stall leaves idle, or fills with late
/// ops, do not set it.
constexpr double kCpuWindowS = 1.0;

/// One open-loop pass of a pre-drawn op stream over the sessions, with the
/// daemon's CPU time at the window boundaries.
struct LoadRun {
  std::vector<OpTiming> timings;
  std::vector<uint8_t> ok, level;
  std::vector<int64_t> seq;  ///< acknowledgement order
  /// Daemon CPU at the scheduled arrival of op `warm`, then after each
  /// window of `window_ops` ops.
  std::vector<int64_t> cpu_ns;
  int64_t window_ops = 0;
  int64_t rss_warm = 0, rss_end = 0, hwm = 0;
};

LoadRun DriveOpenLoop(const std::vector<std::unique_ptr<WireSession>>& sessions,
                      const std::vector<TxnOp>& ops, double rate, int64_t warm,
                      uint8_t level, pid_t pid) {
  const size_t n = ops.size();
  LoadRun run;
  run.ok.assign(n, 0);
  run.level.assign(n, 0);
  run.seq.assign(n, 0);
  run.window_ops = static_cast<int64_t>(rate * kCpuWindowS);
  const int64_t windows = (static_cast<int64_t>(n) - warm) / run.window_ops;
  std::atomic<int64_t> completed{0}, ack_seq{0};
  SteadyClock clock;
  const int64_t start_ns = clock.NowNs() + 2'000'000;
  // Samples the daemon's CPU at window boundaries of the arrival schedule
  // (the open loop's own formula), from a thread of its own.
  std::thread sampler([&] {
    for (int64_t k = 0; k <= windows; ++k) {
      const double i = static_cast<double>(warm + k * run.window_ops);
      clock.SleepUntilNs(start_ns + static_cast<int64_t>(i * 1e9 / rate));
      run.cpu_ns.push_back(ProcCpuNs(pid));
    }
  });
  run.timings = RunOpenLoop(
      clock, static_cast<int64_t>(n), rate, kSessions, start_ns,
      [&](int s, int64_t i) {
        const auto k = static_cast<size_t>(i);
        run.ok[k] = sessions[static_cast<size_t>(s)]->Run(ops[k], level,
                                                          &run.level[k]);
        run.seq[k] = ack_seq.fetch_add(1);
        if (completed.fetch_add(1) + 1 == warm) {
          run.rss_warm = ProcStatusBytes(pid, "VmRSS");
        }
      });
  sampler.join();
  run.hwm = ProcStatusBytes(pid, "VmHWM");
  run.rss_end = ProcStatusBytes(pid, "VmRSS");
  return run;
}

/// Adds every acknowledged op to `ledger`; returns the first kReplayOps of
/// them for the traced run's replay.
template <typename Ledger>
std::vector<Acked> Settle(const std::vector<TxnOp>& ops, const LoadRun& run,
                          Ledger* ledger) {
  std::vector<Acked> acked;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!run.ok[i]) continue;
    ledger->Add(ops[i]);
    if (run.seq[i] < kReplayOps) acked.push_back({run.seq[i], ops[i], run.level[i]});
  }
  return acked;
}

/// The metrics both server workloads compute from a load run; the ops
/// after the first `warm` are the measured window.
void LoadMetrics(const std::vector<std::unique_ptr<WireSession>>& sessions,
                 const LoadRun& run, int64_t warm, RunResult* out) {
  for (const auto& s : sessions) {
    out->attempted += s->counters().ops;
    out->failed += s->counters().failed;
  }
  const auto n = static_cast<int64_t>(run.timings.size());
  std::vector<double> service_us, arrival_us, lateness_us;
  for (int64_t i = warm; i < n; ++i) {
    const OpTiming& t = run.timings[static_cast<size_t>(i)];
    if (!run.ok[static_cast<size_t>(i)]) continue;
    service_us.push_back(NsToUs(t.ServiceNs()));
    arrival_us.push_back(NsToUs(t.LatencyNs()));
    lateness_us.push_back(NsToUs(t.LatenessNs()));
  }
  const double window_ops = static_cast<double>(n - warm);
  std::vector<double> cpu_us_per_op;
  for (size_t k = 1; k < run.cpu_ns.size(); ++k) {
    cpu_us_per_op.push_back(NsToUs(run.cpu_ns[k] - run.cpu_ns[k - 1]) /
                            static_cast<double>(run.window_ops));
  }
  out->e2e["cpu_us_per_op"] = Percentile(cpu_us_per_op, 50);
  out->extra["cpu_us_per_op_mean"] =
      Ratio(NsToUs(run.cpu_ns.back() - run.cpu_ns.front()), window_ops);
  out->extra["cpu_us_per_op_min_window"] = Percentile(cpu_us_per_op, 0);
  out->extra["cpu_us_per_op_max_window"] = Percentile(cpu_us_per_op, 100);
  out->e2e["peak_rss_mb"] = static_cast<double>(run.hwm) / 1e6;
  out->layers["client.op_p50_us"] = Percentile(service_us, 50);
  out->layers["client.op_p99_us"] = Percentile(service_us, 99);
  out->layers["load.lateness_p99_us"] = Percentile(lateness_us, 99);
  out->layers["mem.rss_bytes_per_commit"] =
      Ratio(static_cast<double>(run.rss_end - run.rss_warm), window_ops);
  out->extra["window_ops"] = window_ops;
  out->extra["op_p99_from_arrival_us"] = Percentile(arrival_us, 99);
  for (double p : {90.0, 95.0, 99.9, 100.0}) {
    out->extra[StrCat("op_p", p, "_us")] = Percentile(service_us, p);
  }
}

}  // namespace

RunResult RunBankingSsiDurable(const RunConfig& cfg) {
  constexpr int kAccounts = 4;
  // Offered rate: about a fifth of what 4 closed-loop sessions commit, so
  // the loop keeps its schedule on a slowed machine and every run commits
  // the same number of ops, which sets the version chains' length and the
  // memory they hold.
  constexpr double kRate = 1000;
  constexpr auto kSsi = static_cast<uint8_t>(semcor::IsoLevel::kSsi);
  const int64_t warm = static_cast<int64_t>(kRate);  // one second of arrivals
  const int64_t total = warm + static_cast<int64_t>(kRate) * cfg.seconds;

  std::vector<TxnOp> ops;
  Gen g(StreamSeed(cfg.seed, 0));
  for (int64_t i = 0; i < total; ++i) ops.push_back(NextBankingOp(g, kAccounts));

  RunResult out;
  const std::string wal_dir = cfg.work_dir + "/wal";
  Daemon daemon;
  if (semcor::Status s = daemon.Start(
          cfg.serverd, DaemonArgs("banking", wal_dir), kDaemonStartMs);
      !s.ok()) {
    Fatal(s.ToString());
  }
  out.e2e["setup_s"] = daemon.setup_s();
  auto sessions = Connect(cfg, daemon.port());
  const semcor::net::StatsResp before = Stats(*sessions[0]);
  const LoadRun run = DriveOpenLoop(sessions, ops, kRate, warm, kSsi, daemon.pid());
  const semcor::net::StatsResp after = Stats(*sessions[0]);
  daemon.Kill();

  BankingLedger ledger;
  std::vector<Acked> acked = Settle(ops, run, &ledger);
  LoadMetrics(sessions, run, warm, &out);
  ServerCounters(before, after, &out);
  out.correct = RecoverAndCheck(wal_dir, [&](const semcor::Store& store) {
    return CheckBanking(ReadBanking(store, kAccounts), ledger);
  });

  if (cfg.trace) {
    WireLayers(sessions, before, after, &out);
    Replay(semcor::MakeBankingWorkload(kAccounts), std::move(acked),
           cfg.work_dir + "/replay", &out);
  }
  return out;
}

RunResult RunTpccNegotiated(const RunConfig& cfg) {
  // Offered rate, below the knee of the negotiated mix over 4 sessions.
  constexpr double kRate = 250;
  const TpccShape shape;
  const int64_t warm = static_cast<int64_t>(kRate);  // one second of arrivals
  const int64_t total = warm + static_cast<int64_t>(kRate) * cfg.seconds;

  // The whole op stream is drawn before the daemon starts; the op count
  // is fixed by --seconds, so table sizes (and scan costs) are too.
  std::vector<TxnOp> ops;
  Gen g(StreamSeed(cfg.seed, 0));
  for (int64_t i = 0; i < total; ++i) ops.push_back(NextTpccOp(g, shape));

  RunResult out;
  const std::string wal_dir = cfg.work_dir + "/wal";
  std::vector<std::string> args = DaemonArgs("tpcc", wal_dir);
  args.push_back(StrCat("--tpcc-warehouses=", shape.warehouses));
  args.push_back(StrCat("--tpcc-districts=", shape.districts));
  args.push_back(StrCat("--tpcc-customers=", shape.customers));
  args.push_back(StrCat("--tpcc-items=", shape.items));
  Daemon daemon;
  if (semcor::Status s = daemon.Start(cfg.serverd, args, kDaemonStartMs);
      !s.ok()) {
    Fatal(s.ToString());
  }
  out.e2e["setup_s"] = daemon.setup_s();
  auto sessions = Connect(cfg, daemon.port());
  const semcor::net::StatsResp before = Stats(*sessions[0]);
  const LoadRun run = DriveOpenLoop(sessions, ops, kRate, warm,
                                    semcor::net::kNegotiateLevel, daemon.pid());
  const semcor::net::StatsResp after = Stats(*sessions[0]);
  daemon.Kill();

  TpccLedger ledger(shape);
  std::vector<Acked> acked = Settle(ops, run, &ledger);
  LoadMetrics(sessions, run, warm, &out);
  ServerCounters(before, after, &out);
  out.correct = RecoverAndCheck(wal_dir, [&](const semcor::Store& store) {
    return CheckTpcc(ReadTpcc(store, shape), ledger, shape);
  });

  if (cfg.trace) {
    WireLayers(sessions, before, after, &out);
    Replay(semcor::MakeTpccWorkload(shape.warehouses, shape.districts,
                                    shape.customers, shape.items),
           std::move(acked), cfg.work_dir + "/replay", &out);
  }
  return out;
}

}  // namespace repobench
