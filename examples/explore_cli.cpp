// semcor_explore: parallel schedule-space exploration with counterexample
// shrinking, cross-checked against the paper's static level analysis.
//
//   semcor_explore --workload=banking --level=snapshot --threads=8
//                  --budget=100000 --seed=42
//
// Fault injection: --faults=seed:N runs every schedule under a deterministic
// fault plan (forced aborts, transient lock failures, crash-before-commit)
// and switches aborts to schedulable rollback, so the explorer can interleave
// undo writes with other transactions (Theorem 1's hazard at READ
// UNCOMMITTED). --exec-items=N instead runs the closed-loop concurrent
// executor as a resilience smoke test and prints its statistics.
//
// Exit codes: 0 = done (cross-check consistent), 1 = soundness violation
// (static says correct, exploration found an anomaly), 2 = anomalies found
// while --expect-no-anomalies was set, 3 = usage / setup error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "explore/crosscheck.h"
#include "explore/session.h"
#include "txn/executor.h"
#include "txn/isolation.h"
#include "workload/workload.h"

namespace {

using namespace semcor;

struct CliOptions {
  std::string workload = "banking";
  std::string mix;          // empty = every explore mix of the workload
  std::string level = "snapshot";
  ExploreOptions explore;
  bool expect_no_anomalies = false;
  bool atomic_rollback = false;  // opt out of schedulable rollback
  int max_retries = 3;           // executor-mode retry budget
  int exec_items = 0;            // >0: executor smoke mode, items per thread
  int crash_matrix = 0;          // >0: crash-recovery mode, schedules per mix
};

bool MakeWorkload(const std::string& name, Workload* out) {
  if (name == "banking") {
    *out = MakeBankingWorkload();
  } else if (name == "payroll") {
    *out = MakePayrollWorkload();
  } else if (name == "orders") {
    *out = MakeOrdersWorkload();
  } else if (name == "orders_unique") {
    // The "one order per day" business rule: the stronger invariant makes
    // the lost-MAXDATE-update anomaly visible in the database state itself,
    // so READ-COMMITTED is statically rejected and RC-FCW is required.
    *out = MakeOrdersWorkload(/*one_order_per_day=*/true);
  } else {
    return false;
  }
  return true;
}

/// Declares every flag against `opts` plus the string-shaped ones that need
/// post-parse validation (mode / faults / deadlock policy specs). Returns
/// false (after the parser already printed the problem and usage) on any
/// unknown flag or malformed value; *help is set when --help was given.
bool ParseArgs(int argc, char** argv, CliOptions* opts, bool* help) {
  std::string mode = "both";
  std::string faults;
  std::string deadlock_policy;
  bool no_shrink = false;
  cli::Flags flags("semcor_explore",
                   "Parallel schedule-space exploration with counterexample "
                   "shrinking, cross-checked against the static analysis.");
  flags.Str("workload", &opts->workload,
            "workload (banking|payroll|orders|orders_unique)");
  flags.Str("mix", &opts->mix, "explore mix name (empty = every mix)");
  flags.Str("level", &opts->level,
            "isolation level (ru, rc, rc_fcw, rr, snapshot, serializable, "
            "ssi) or 'all'");
  flags.Int("threads", &opts->explore.threads, "exploration worker threads");
  flags.I64("budget", &opts->explore.budget, "complete-schedule budget");
  flags.U64("seed", &opts->explore.seed, "fuzz-phase seed");
  flags.Int("preemptions", &opts->explore.preemption_bound,
            "preemption bound (-1 = unbounded)");
  flags.Str("mode", &mode, "enumerate|fuzz|both");
  flags.Bool("no-shrink", &no_shrink, "keep witnesses unminimized");
  flags.Bool("expect-no-anomalies", &opts->expect_no_anomalies,
             "exit 2 if any anomaly is found");
  flags.Str("faults", &faults,
            "deterministic fault plan 'seed:N' (implies schedulable undo)");
  flags.Bool("atomic-rollback", &opts->atomic_rollback,
             "keep rollback a single step");
  flags.Str("deadlock-policy", &deadlock_policy,
            "youngest|wound_wait|bounded_wait[:N]");
  flags.Int("max-retries", &opts->max_retries, "executor-mode retry budget");
  flags.Int("exec-items", &opts->exec_items,
            "executor smoke mode: items per thread (0 = explore mode)");
  flags.Int("crash-matrix", &opts->crash_matrix,
            "crash-recovery mode: run N random schedules per mix/level "
            "through the WAL crash-point matrix (0 = explore mode)");
  if (!flags.Parse(argc, argv)) return false;
  if (flags.help_requested() || flags.version_requested()) {
    *help = true;
    return true;
  }
  if (mode != "fuzz" && mode != "enumerate" && mode != "both") {
    std::fprintf(stderr, "semcor_explore: bad --mode=%s\n", mode.c_str());
    return false;
  }
  opts->explore.enumerate = mode != "fuzz";
  opts->explore.fuzz = mode != "enumerate";
  opts->explore.shrink = !no_shrink;
  if (!faults.empty()) {
    if (faults.compare(0, 5, "seed:") != 0) {
      std::fprintf(stderr, "semcor_explore: bad --faults=%s\n", faults.c_str());
      return false;
    }
    opts->explore.faults =
        FaultPlan::Seeded(static_cast<uint64_t>(std::atoll(faults.c_str() + 5)));
    opts->explore.schedulable_rollback = true;
  }
  if (!deadlock_policy.empty() &&
      !ParseDeadlockPolicy(deadlock_policy, &opts->explore.deadlock_policy)) {
    std::fprintf(stderr, "semcor_explore: bad --deadlock-policy=%s\n",
                 deadlock_policy.c_str());
    return false;
  }
  if (opts->atomic_rollback) opts->explore.schedulable_rollback = false;
  return true;
}

/// Closed-loop executor smoke run: one fresh database per level, every type
/// of the workload at that level, deterministic retry backoff, optional
/// fault plan. Prints merged statistics; returns false on setup failure.
bool RunExecutorMode(const Workload& workload, const CliOptions& opts,
                     const std::vector<IsoLevel>& levels) {
  for (IsoLevel level : levels) {
    Store store;
    LockManager locks;
    TxnManager mgr(&store, &locks);
    if (!workload.setup(&store).ok()) {
      std::fprintf(stderr, "workload setup failed\n");
      return false;
    }
    FaultInjector faults;
    FaultInjector* faults_ptr = nullptr;
    if (!opts.explore.faults.empty()) {
      faults.SetPlan(opts.explore.faults);
      faults.BeginRun();
      locks.SetFaultHook([&faults](TxnId txn) {
        return FaultStatus(faults.At(FaultSite::kLockGrant, txn));
      });
      faults_ptr = &faults;
    }
    std::map<std::string, IsoLevel> assignment;
    for (const auto& [type, unused] : workload.paper_levels) {
      assignment[type] = level;
    }
    ConcurrentExecutor executor(&mgr, opts.explore.threads);
    RetryPolicy retry;
    retry.max_attempts = opts.max_retries + 1;
    double wall = 0;
    ExecStats stats = executor.Run(
        [&](Rng& rng) { return workload.DrawFromMix(rng, assignment, level); },
        opts.exec_items, retry, /*log=*/nullptr, &wall, opts.explore.seed,
        faults_ptr);
    std::printf(
        "exec %s @ %s: committed=%ld aborted=%ld deadlocks=%ld "
        "fcw_conflicts=%ld injected_faults=%ld retries_exhausted=%ld "
        "(%d threads, %.2fs, policy=%s, max_retries=%d)\n",
        workload.app.name.c_str(), IsoLevelName(level), stats.committed,
        stats.aborted, stats.deadlocks, stats.fcw_conflicts,
        stats.injected_faults, stats.retries_exhausted, opts.explore.threads,
        wall, DeadlockPolicyName(opts.explore.deadlock_policy.kind),
        opts.max_retries);
  }
  return true;
}

/// Crash-recovery mode: for each mix/level, draw N random schedules and run
/// each through the WAL crash-point matrix — every byte prefix of the log a
/// crash could leave must recover to a commit-order prefix of the schedule's
/// history. Returns false on any mismatch (a durability violation).
bool RunCrashMatrixMode(const Workload& workload,
                        const std::vector<const ExploreMix*>& mixes,
                        const std::vector<IsoLevel>& levels,
                        const CliOptions& opts) {
  bool all_ok = true;
  for (const ExploreMix* mix : mixes) {
    for (IsoLevel level : levels) {
      ExploreSession session;
      ExploreSessionOptions sopts;
      sopts.schedulable_rollback = opts.explore.schedulable_rollback;
      sopts.deadlock_policy = opts.explore.deadlock_policy;
      if (Status s = session.Init(workload, *mix, level, sopts); !s.ok()) {
        std::fprintf(stderr, "semcor_explore: %s\n", s.ToString().c_str());
        return false;
      }
      Rng rng(opts.explore.seed);
      long points = 0, torn = 0, mismatches = 0, commits = 0;
      for (int n = 0; n < opts.crash_matrix; ++n) {
        Schedule hints;
        session.Fuzz(rng, 256, &hints);  // draw a complete random schedule
        const CrashMatrixResult cm = session.RunCrashMatrix(hints);
        points += cm.points_checked;
        torn += cm.torn_points;
        commits += cm.committed;
        mismatches += cm.mismatches;
        if (!cm.ok()) {
          all_ok = false;
          std::fprintf(stderr, "%s @ %s schedule %s\n%s\n",
                       mix->name.c_str(), IsoLevelName(level),
                       ScheduleToString(hints).c_str(), cm.Summary().c_str());
        }
      }
      std::printf(
          "crash-matrix %s @ %s: %d schedules, %ld commits, %ld crash points "
          "(%ld torn), %ld mismatches\n",
          mix->name.c_str(), IsoLevelName(level), opts.crash_matrix, commits,
          points, torn, mismatches);
    }
  }
  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  bool help = false;
  if (!ParseArgs(argc, argv, &opts, &help)) return 3;
  if (help) return 0;
  Workload workload;
  if (!MakeWorkload(opts.workload, &workload)) {
    std::fprintf(stderr, "unknown workload %s\n", opts.workload.c_str());
    return 3;
  }
  std::vector<const ExploreMix*> mixes;
  if (opts.mix.empty()) {
    for (const ExploreMix& m : workload.explore_mixes) mixes.push_back(&m);
  } else {
    const ExploreMix* m = workload.FindExploreMix(opts.mix);
    if (m == nullptr) {
      std::fprintf(stderr, "workload %s has no mix %s\n",
                   opts.workload.c_str(), opts.mix.c_str());
      return 3;
    }
    mixes.push_back(m);
  }
  std::vector<IsoLevel> levels;
  if (opts.level == "all") {
    for (IsoLevel level : AllLevels()) levels.push_back(level);
  } else {
    IsoLevel level;
    if (!ParseIsoLevel(opts.level, &level)) {
      std::fprintf(stderr, "unknown level %s\n", opts.level.c_str());
      return 3;
    }
    levels.push_back(level);
  }

  if (opts.exec_items > 0) {
    return RunExecutorMode(workload, opts, levels) ? 0 : 3;
  }
  if (opts.crash_matrix > 0) {
    // Exit 1: a recovery that diverged from commit-order replay is the
    // durability analogue of a soundness violation.
    return RunCrashMatrixMode(workload, mixes, levels, opts) ? 0 : 1;
  }

  bool unsound = false;
  int64_t total_anomalies = 0;
  for (const ExploreMix* mix : mixes) {
    for (IsoLevel level : levels) {
      ExploreOptions eopts = opts.explore;
      eopts.level = level;
      Result<CrossCheckResult> result = CrossCheck(workload, *mix, eopts);
      if (!result.ok()) {
        std::fprintf(stderr, "cross-check failed: %s\n",
                     result.status().ToString().c_str());
        return 3;
      }
      std::printf("%s\n%s\n\n", result.value().Summary().c_str(),
                  result.value().exploration.Summary().c_str());
      unsound = unsound || result.value().unsound;
      total_anomalies += result.value().exploration.anomalies;
    }
  }
  if (unsound) {
    std::fprintf(stderr,
                 "FAIL: soundness cross-check violated (static correct, "
                 "dynamic anomaly)\n");
    return 1;
  }
  if (opts.expect_no_anomalies && total_anomalies > 0) {
    std::fprintf(stderr, "FAIL: %lld anomalies found (expected none)\n",
                 static_cast<long long>(total_anomalies));
    return 2;
  }
  return 0;
}
