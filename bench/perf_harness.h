#ifndef SEMCOR_BENCH_PERF_HARNESS_H_
#define SEMCOR_BENCH_PERF_HARNESS_H_

#include "bench/bench_util.h"
#include "sem/rt/oracle.h"
#include "txn/executor.h"
#include "workload/workload.h"

namespace semcor::bench {

struct PerfResult {
  double tps = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  long committed = 0;
  long aborted = 0;
  long deadlocks = 0;
  long retries_exhausted = 0;
  int violation_rounds = 0;  ///< rounds whose final state was incorrect
  int rounds = 0;
  /// Lock-manager counters summed over every round (shard contention view).
  LockManager::Stats lock;
  size_t lock_shards = 0;  ///< shard count of the managers the rounds used

  double AbortRate() const {
    const double attempts = committed + aborted;
    return attempts > 0 ? 100.0 * aborted / attempts : 0;
  }
};

/// Runs `rounds` independent rounds of the workload mix (fresh database per
/// round) under the given level assignment, merging executor statistics and
/// counting rounds whose outcome fails the semantic-correctness oracle.
inline PerfResult RunRounds(const Workload& w,
                            const std::map<std::string, IsoLevel>& levels,
                            IsoLevel fallback, int threads,
                            int items_per_thread, int rounds,
                            uint64_t seed = 7) {
  PerfResult out;
  out.rounds = rounds;
  double total_wall = 0;
  ExecStats merged;
  for (int round = 0; round < rounds; ++round) {
    Store store;
    LockManager locks;
    TxnManager mgr(&store, &locks);
    out.lock_shards = locks.shard_count();
    if (!w.setup(&store).ok()) continue;
    MapEvalContext initial = store.SnapshotToMap();
    CommitLog log;
    ConcurrentExecutor executor(&mgr, threads);
    double wall = 0;
    ExecStats stats = executor.Run(
        [&](Rng& rng) { return w.DrawFromMix(rng, levels, fallback); },
        items_per_thread, /*max_retries=*/25, &log, &wall,
        seed + static_cast<uint64_t>(round) * 65537);
    merged.Merge(stats);
    total_wall += wall;
    OracleReport report =
        CheckSemanticCorrectness(initial, store, log, w.app.invariant);
    if (!report.ok()) ++out.violation_rounds;
  }
  out.committed = merged.committed;
  out.aborted = merged.aborted;
  out.deadlocks = merged.deadlocks;
  out.retries_exhausted = merged.retries_exhausted;
  out.tps = merged.Throughput(total_wall);
  out.p50_us = merged.latency_us.Percentile(50);
  out.p95_us = merged.latency_us.Percentile(95);
  out.p99_us = merged.latency_us.Percentile(99);
  out.lock = merged.lock;
  return out;
}

/// Column headers for PerfJsonRow — the machine-readable policy table the
/// perf benches (E3, E5) emit next to their printed one.
inline std::vector<std::string> PerfJsonHeaders() {
  return {"policy",     "txns_per_s", "p50_us",
          "p95_us",     "p99_us",     "abort_pct",
          "committed",  "aborted",    "deadlocks",
          "retries_exhausted",        "violating_rounds",
          "rounds",     "lock_grants", "lock_blocks",
          "lock_deadlocks",           "lock_contention_waits",
          "lock_shards"};
}

inline std::vector<std::string> PerfJsonRow(const std::string& label,
                                            const PerfResult& r) {
  return {label,
          Fmt(r.tps, 1),
          Fmt(r.p50_us, 1),
          Fmt(r.p95_us, 1),
          Fmt(r.p99_us, 1),
          Fmt(r.AbortRate(), 2),
          std::to_string(r.committed),
          std::to_string(r.aborted),
          std::to_string(r.deadlocks),
          std::to_string(r.retries_exhausted),
          std::to_string(r.violation_rounds),
          std::to_string(r.rounds),
          std::to_string(r.lock.grants),
          std::to_string(r.lock.blocks),
          std::to_string(r.lock.deadlocks),
          std::to_string(r.lock.contention_waits),
          std::to_string(r.lock_shards)};
}

/// Uniform level assignment for every type of the workload.
inline std::map<std::string, IsoLevel> AllAt(const Workload& w,
                                             IsoLevel level) {
  std::map<std::string, IsoLevel> out;
  for (const auto& [type, unused] : w.paper_levels) out[type] = level;
  return out;
}

}  // namespace semcor::bench

#endif  // SEMCOR_BENCH_PERF_HARNESS_H_
