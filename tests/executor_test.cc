#include <gtest/gtest.h>

#include "sem/rt/oracle.h"
#include "txn/executor.h"
#include "workload/workload.h"

namespace semcor {
namespace {

TEST(ExecStatsTest, MergeAddsCountersAndLatencyHistograms) {
  ExecStats a, b;
  a.committed = 3;
  a.aborted = 1;
  a.latency_us.Record(10);
  b.committed = 2;
  b.deadlocks = 4;
  for (int64_t us : {20, 30, 1000}) b.latency_us.Record(us);
  a.Merge(b);
  EXPECT_EQ(a.committed, 5);
  EXPECT_EQ(a.aborted, 1);
  EXPECT_EQ(a.deadlocks, 4);
  EXPECT_EQ(a.latency_us.Count(), 4u);
  // Percentiles come from the merged buckets; values below 64 are exact.
  EXPECT_EQ(a.latency_us.Percentile(25), 10);
  EXPECT_EQ(a.latency_us.Percentile(50), 20);
  EXPECT_EQ(a.latency_us.Percentile(75), 30);
  // Larger values report their bucket's upper bound, at most ~3% above.
  EXPECT_GE(a.latency_us.Percentile(100), 1000);
  EXPECT_LE(a.latency_us.Percentile(100), 1031);
  EXPECT_EQ(ExecStats().latency_us.Percentile(50), 0);
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : mgr_(&store_, &locks_) {}

  Store store_;
  LockManager locks_;
  TxnManager mgr_;
};

TEST_F(ExecutorTest, BankingMixedLevelsStaysCorrect) {
  Workload w = MakeBankingWorkload(8);
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  CommitLog log;
  ConcurrentExecutor executor(&mgr_, 4);
  double wall = 0;
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        return w.DrawFromMix(rng, w.paper_levels, IsoLevel::kSerializable);
      },
      40, 20, &log, &wall);
  EXPECT_GT(stats.committed, 0);
  EXPECT_EQ(stats.committed, static_cast<long>(log.size()));
  EXPECT_EQ(stats.retries_exhausted, 0);
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log, w.app.invariant);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(ExecutorTest, HighContentionSerializableStaysCorrect) {
  // Every transaction hammers one account at SERIALIZABLE: whatever mix of
  // blocking, deadlock-victim aborts, and retries occurs, the outcome must
  // be semantically correct. (The write-skew counterpart is demonstrated
  // deterministically in schedule_test and statistically in bench E4.)
  Workload w = MakeBankingWorkload(1);
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  CommitLog log;
  ConcurrentExecutor executor(&mgr_, 4);
  double wall = 0;
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        WorkItem item;
        item.program = w.instantiate(
            rng.Bernoulli(0.5) ? "Withdraw_sav" : "Deposit_ch", rng);
        item.level = IsoLevel::kSerializable;
        return item;
      },
      25, 50, &log, &wall);
  EXPECT_GT(stats.committed, 0);
  EXPECT_EQ(stats.retries_exhausted, 0);
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log, w.app.invariant);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(ExecutorTest, DeadlockStatsAgreeAcrossLayers) {
  // Deadlock-heavy run: a tiny banking world at SERIALIZABLE with blocking
  // locks forces lock-order cycles. The lock manager counts deadlocks where
  // it detects them (wait-for cycle / wait timeout) and the executor counts
  // attempts that failed with Code::kDeadlock — the two tallies must agree.
  Workload w = MakeBankingWorkload(2);
  ASSERT_TRUE(w.setup(&store_).ok());
  CommitLog log;
  ConcurrentExecutor executor(&mgr_, 4);
  double wall = 0;
  RetryPolicy retry;
  retry.max_attempts = 8;
  retry.backoff_base_us = 0;  // no backoff: maximize lock-cycle pressure
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        WorkItem item;
        item.program = w.instantiate(
            rng.Bernoulli(0.5) ? "Withdraw_sav" : "Deposit_ch", rng);
        item.level = IsoLevel::kSerializable;
        return item;
      },
      50, retry, &log, &wall);
  EXPECT_GT(stats.committed, 0);
  EXPECT_EQ(locks_.stats().deadlocks, stats.deadlocks);
}

TEST_F(ExecutorTest, TpccMixAtPaperLevelsCorrect) {
  Workload w = MakeTpccWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  CommitLog log;
  ConcurrentExecutor executor(&mgr_, 3);
  double wall = 0;
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        return w.DrawFromMix(rng, w.paper_levels, IsoLevel::kSerializable);
      },
      30, 20, &log, &wall);
  EXPECT_GT(stats.committed, 0);
  EXPECT_EQ(stats.retries_exhausted, 0);
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log, w.app.invariant);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace semcor
