// The paper's §6 application end-to-end: analyze all four transaction types
// (Figures 2-5), print the per-level obligation outcomes that justify each
// assignment, then run a mixed-level concurrent workload on the testbed and
// verify semantic correctness at the advised levels.

#include <cstdio>

#include "sem/check/advisor.h"
#include "sem/check/obligations.h"
#include "sem/rt/oracle.h"
#include "txn/executor.h"
#include "workload/workload.h"

using namespace semcor;

int main() {
  Workload w = MakeOrdersWorkload(/*one_order_per_day=*/true);

  // --- static analysis ---
  std::printf("Analysis-cost summary (obligations per level):\n%s\n",
              RenderObligationCounts(CountObligations(w.app)).c_str());

  LevelAdvisor advisor(w.app, AdvisorOptions());
  std::vector<LevelAdvice> advice = advisor.AdviseAll();
  std::printf("Lowest correct level per transaction type (§5 procedure):\n");
  std::map<std::string, IsoLevel> levels;
  for (const LevelAdvice& a : advice) {
    levels[a.txn_type] = a.recommended;
    std::printf("  %-13s -> %s\n", a.txn_type.c_str(),
                IsoLevelName(a.recommended));
    // Why the level below fails: the first failing obligation.
    if (a.reports.size() >= 2) {
      const LevelCheckReport& below = a.reports[a.reports.size() - 2];
      if (const Obligation* f = below.FirstFailure()) {
        std::printf("     (%s fails: [%s] interfered by %s)\n",
                    IsoLevelName(below.level), f->assertion.c_str(),
                    f->source.c_str());
      }
    }
  }

  // --- dynamic validation ---
  std::printf("\nRunning 480 mixed transactions at the advised levels...\n");
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  if (!w.setup(&store).ok()) return 1;
  MapEvalContext initial = store.SnapshotToMap();
  CommitLog log;
  ConcurrentExecutor executor(&mgr, 4);
  double wall = 0;
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        return w.DrawFromMix(rng, levels, IsoLevel::kSerializable);
      },
      120, 25, &log, &wall);
  std::printf("  committed=%ld aborted=%ld deadlocks=%ld fcw=%ld "
              "throughput=%.0f txn/s p50=%.0fus\n",
              stats.committed, stats.aborted, stats.deadlocks,
              stats.fcw_conflicts, stats.Throughput(wall),
              static_cast<double>(stats.latency_us.Percentile(50)));

  OracleReport oracle =
      CheckSemanticCorrectness(initial, store, log, w.app.invariant);
  std::printf("  oracle: %s\n", oracle.ToString().c_str());
  std::printf("  final: %zu orders, maximum_date=%lld (one per day: %s)\n",
              store.CommittedTuples("ORDERS").size(),
              static_cast<long long>(
                  store.ReadItemCommitted("maximum_date").value().AsInt()),
              store.CommittedTuples("ORDERS").size() ==
                      static_cast<size_t>(store.ReadItemCommitted("maximum_date")
                                              .value()
                                              .AsInt())
                  ? "holds"
                  : "BROKEN");
  return oracle.ok() ? 0 : 1;
}
