#include "txn/executor.h"

#include <chrono>
#include <thread>

#include "wal/wal.h"

namespace semcor {

void ExecStats::Merge(const ExecStats& other) {
  committed += other.committed;
  aborted += other.aborted;
  deadlocks += other.deadlocks;
  fcw_conflicts += other.fcw_conflicts;
  injected_faults += other.injected_faults;
  retries_exhausted += other.retries_exhausted;
  ssi_aborts += other.ssi_aborts;
  ssi_false_positive_aborts += other.ssi_false_positive_aborts;
  ssi_required_aborts += other.ssi_required_aborts;
  wal_appends += other.wal_appends;
  fsyncs += other.fsyncs;
  group_commit_batches += other.group_commit_batches;
  group_commit_batch_commits += other.group_commit_batch_commits;
  recovery_replayed_txns += other.recovery_replayed_txns;
  latency_us.Merge(other.latency_us);
  lock.Add(other.lock);
  if (lock_shards.size() < other.lock_shards.size()) {
    lock_shards.resize(other.lock_shards.size());
  }
  for (size_t i = 0; i < other.lock_shards.size(); ++i) {
    lock_shards[i].Add(other.lock_shards[i]);
  }
}

ExecStats ConcurrentExecutor::Run(const Generator& gen, int items_per_thread,
                                  const RetryPolicy& retry, CommitLog* log,
                                  double* wall_seconds, uint64_t seed,
                                  FaultInjector* faults) {
  const int attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;
  const long faults_before =
      faults != nullptr ? faults->stats().injected : 0;
  const std::vector<LockManager::Stats> lock_before =
      mgr_->locks()->ShardStats();
  const wal::WalStats wal_before =
      mgr_->wal() != nullptr ? mgr_->wal()->stats() : wal::WalStats();
  const SsiCounters ssi_before = mgr_->ssi().counters();
  std::vector<ExecStats> per_thread(threads_);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads_);
  for (int t = 0; t < threads_; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(seed + static_cast<uint64_t>(t) * 1000003);
      ExecStats& stats = per_thread[t];
      for (int i = 0; i < items_per_thread; ++i) {
        WorkItem item = gen(rng);
        bool committed = false;
        bool settled = false;
        for (int attempt = 0; attempt < attempts && !committed; ++attempt) {
          const auto t0 = std::chrono::steady_clock::now();
          ProgramRun run(mgr_, item.program, item.level, log);
          if (faults != nullptr) run.SetFaultInjector(faults);
          StepOutcome outcome = run.RunToCompletion();
          if (outcome == StepOutcome::kCommitted) {
            const auto t1 = std::chrono::steady_clock::now();
            stats.latency_us.Record(
                std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                    .count());
            ++stats.committed;
            committed = true;
            break;
          }
          ++stats.aborted;
          if (run.failure().code() == Code::kDeadlock) ++stats.deadlocks;
          if (run.failure().code() == Code::kConflict) ++stats.fcw_conflicts;
          // An explicit Abort statement is the program's own decision (TPC-C
          // rolls back 1% of NewOrders); re-running would abort identically
          // forever, so the item settles instead of consuming retries.
          if (run.UserAborted()) {
            settled = true;
            break;
          }
          // Backoff keeps optimistic (FCW) retries from livelocking on hot
          // items; the deterministic variant is a pure function of
          // (seed, thread, item, attempt), so runs with the same seed sleep
          // identically.
          const uint64_t us =
              retry.deterministic
                  ? retry.BackoffUs(
                        attempt, seed ^ (static_cast<uint64_t>(t) << 32) ^
                                     static_cast<uint64_t>(i))
                  : static_cast<uint64_t>(rng.Uniform(
                        0, retry.backoff_base_us * (attempt + 1)));
          if (us > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(us));
          }
        }
        if (!committed && !settled) ++stats.retries_exhausted;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const auto end = std::chrono::steady_clock::now();
  if (wall_seconds != nullptr) {
    *wall_seconds = std::chrono::duration<double>(end - start).count();
  }
  ExecStats merged;
  for (const ExecStats& s : per_thread) merged.Merge(s);
  if (faults != nullptr) {
    merged.injected_faults = faults->stats().injected - faults_before;
  }
  const std::vector<LockManager::Stats> lock_after =
      mgr_->locks()->ShardStats();
  merged.lock_shards.assign(lock_after.size(), LockManager::Stats());
  for (size_t i = 0; i < lock_after.size(); ++i) {
    LockManager::Stats& d = merged.lock_shards[i];
    d = lock_after[i];
    if (i < lock_before.size()) {
      d.grants -= lock_before[i].grants;
      d.blocks -= lock_before[i].blocks;
      d.deadlocks -= lock_before[i].deadlocks;
      d.contention_waits -= lock_before[i].contention_waits;
    }
    merged.lock.Add(d);
  }
  const SsiCounters ssi_after = mgr_->ssi().counters();
  merged.ssi_aborts = ssi_after.aborts - ssi_before.aborts;
  merged.ssi_false_positive_aborts =
      ssi_after.false_positive_aborts - ssi_before.false_positive_aborts;
  merged.ssi_required_aborts =
      ssi_after.required_aborts - ssi_before.required_aborts;
  if (mgr_->wal() != nullptr) {
    const wal::WalStats wal_after = mgr_->wal()->stats();
    merged.wal_appends =
        static_cast<long>(wal_after.appends - wal_before.appends);
    merged.fsyncs = static_cast<long>(wal_after.fsyncs - wal_before.fsyncs);
    merged.group_commit_batches = static_cast<long>(
        wal_after.group_commit_batches - wal_before.group_commit_batches);
    merged.group_commit_batch_commits = static_cast<long>(
        wal_after.batch_commits - wal_before.batch_commits);
  }
  return merged;
}

ExecStats ConcurrentExecutor::Run(const Generator& gen, int items_per_thread,
                                  int max_retries, CommitLog* log,
                                  double* wall_seconds, uint64_t seed) {
  RetryPolicy retry;
  retry.max_attempts = max_retries + 1;
  retry.backoff_base_us = 50;
  retry.deterministic = false;  // historical randomized backoff
  return Run(gen, items_per_thread, retry, log, wall_seconds, seed, nullptr);
}

}  // namespace semcor
