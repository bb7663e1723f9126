// advisor-edit: the developer's lint loop over the paper's Theorems 1-6. A
// generated application of kTypes types gets a cold check, then a stream
// of one-type edits; each edit registers an edited (or restored) variant of
// one type and re-advises the whole application incrementally.

#include <unistd.h>

#include <algorithm>

#include "checks.h"
#include "common/str_util.h"
#include "daemon.h"
#include "gen.h"
#include "sem/check/advisor.h"
#include "sem/check/incremental.h"
#include "sem/check/suitegen.h"
#include "stats.h"
#include "trace.h"
#include "workload/workload.h"
#include "workloads.h"

namespace repobench {

namespace {

constexpr int kTypes = 12;
/// Shape draws of the generated suite. Fixed, so every seed edits the same
/// application and set-up does the same work; --seed drives the edits.
constexpr uint64_t kSuiteSeed = 7;

AdviceTable Table(const std::vector<semcor::LevelAdvice>& advice,
                  const std::string& prefix, bool with_snapshot) {
  AdviceTable t;
  for (const semcor::LevelAdvice& a : advice) {
    t.push_back({prefix + a.txn_type, static_cast<int>(a.recommended),
                 with_snapshot && a.snapshot_correct});
  }
  std::sort(t.begin(), t.end(),
            [](const AdviceRow& a, const AdviceRow& b) { return a.type < b.type; });
  return t;
}

/// Advice for every paper workload next to the level the paper states.
void PaperLevels(AdviceTable* advised, AdviceTable* paper) {
  const std::pair<const char*, semcor::Workload> workloads[] = {
      {"banking", semcor::MakeBankingWorkload()},
      {"payroll", semcor::MakePayrollWorkload()},
      {"mailing", semcor::MakeMailingWorkload()},
      {"orders", semcor::MakeOrdersWorkload(false)},
      {"orders_unique", semcor::MakeOrdersWorkload(true)},
      {"tpcc", semcor::MakeTpccWorkload()},
  };
  for (const auto& [name, w] : workloads) {
    const std::string prefix = semcor::StrCat(name, "/");
    semcor::LevelAdvisor advisor(w.app, semcor::AdvisorOptions{});
    const AdviceTable got = Table(advisor.AdviseAll(), prefix, false);
    advised->insert(advised->end(), got.begin(), got.end());
    AdviceTable want;
    for (const semcor::TransactionType& type : w.app.types) {
      auto it = w.paper_levels.find(type.name);
      // A type without a stated level can match no advice.
      want.push_back({prefix + type.name,
                      it == w.paper_levels.end() ? -1
                                                 : static_cast<int>(it->second),
                      false});
    }
    std::sort(want.begin(), want.end(), [](const AdviceRow& a,
                                           const AdviceRow& b) {
      return a.type < b.type;
    });
    paper->insert(paper->end(), want.begin(), want.end());
  }
}

}  // namespace

RunResult RunAdvisorEdit(const RunConfig& cfg) {
  semcor::SuiteOptions suite;
  suite.num_types = kTypes;
  suite.seed = kSuiteSeed;
  const semcor::Application original = semcor::MakeGeneratedSuite(suite);
  // The cold check runs on 4 threads, the load process's limit. On one
  // thread it took 0.07-0.14 s and its median over ten runs moved by a
  // third between sets.
  RunResult out;
  semcor::IncrementalStats cold;
  {
    semcor::IncrementalOptions options;
    options.threads = 4;
    semcor::IncrementalAdvisor cold_check(original, options);
    cold_check.AdviseAll();
    out.e2e["setup_s"] =
        static_cast<double>(MonoNs() - cfg.process_start_ns) / 1e9;
    cold = cold_check.stats();
  }
  // The edit stream checks pairs on the calling thread, so the process's
  // CPU time is the re-checks' own: idle StealPool workers spin on yield
  // and would charge CPU time by scheduling. Its own cold check is untimed.
  semcor::IncrementalOptions options;
  options.threads = 1;
  semcor::IncrementalAdvisor advisor(original, options);
  advisor.AdviseAll();

  // Warm-up, untimed: one round in index order, so the decision memo holds
  // what the edit stream will ask.
  for (int i = 0; i < kTypes; ++i) {
    advisor.RegisterType(semcor::MakeEditedType(suite, i));
    advisor.AdviseAll();
    advisor.RegisterType(original.types[static_cast<size_t>(i)]);
    advisor.AdviseAll();
  }

  // The op stream, in rounds: an op edits one type, re-advises, restores
  // it and re-advises again, the developer's try-an-edit loop. Each round
  // visits every type once in a seeded order, and the run ends on a round's
  // end, so every run holds whole rounds of the same ops and seeds differ
  // only in their order.
  Gen g(StreamSeed(cfg.seed, 0));
  std::vector<size_t> order(kTypes);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> op_us, register_us, readvise_us;
  const semcor::IncrementalStats window_start = advisor.stats();
  const semcor::MemoStats memo_start = advisor.memo()->Stats();
  auto edit = [&](const semcor::TransactionType& type) {
    const int64_t t0 = MonoNs();
    advisor.RegisterType(type);
    const int64_t t1 = MonoNs();
    advisor.AdviseAll();
    const int64_t t2 = MonoNs();
    register_us.push_back(NsToUs(t1 - t0));
    readvise_us.push_back(NsToUs(t2 - t1));
    return t2 - t0;
  };
  // CPU per op of each round; cpu_us_per_op is the cheapest round's.
  // Rounds' CPU times ranged up to 2x within one run (other tenants of the
  // host contending for the core and its caches), and their median moved
  // by a fifth between runs, while the cheapest of a 20 s run's 70-90
  // rounds stayed within 4% over ten seeds: every round holds the same ops,
  // so the cheapest is the one that ran least disturbed.
  std::vector<double> round_cpu_us_per_op;
  const int64_t end = MonoNs() + static_cast<int64_t>(cfg.seconds) * 1'000'000'000;
  while (MonoNs() < end) {
    const int64_t cpu_start = ProcCpuNs(::getpid());
    for (size_t j = order.size() - 1; j > 0; --j) {
      std::swap(order[j], order[static_cast<size_t>(
                              g.Uniform(0, static_cast<int64_t>(j)))]);
    }
    for (const size_t i : order) {
      const semcor::TransactionType edited =
          semcor::MakeEditedType(suite, static_cast<int>(i));
      const int64_t ns = edit(edited) + edit(original.types[i]);
      op_us.push_back(NsToUs(ns));
    }
    round_cpu_us_per_op.push_back(NsToUs(ProcCpuNs(::getpid()) - cpu_start) /
                                  static_cast<double>(order.size()));
  }
  const semcor::IncrementalStats window_end = advisor.stats();
  const semcor::MemoStats memo_end = advisor.memo()->Stats();
  out.attempted = static_cast<int64_t>(op_us.size());
  out.e2e["cpu_us_per_op"] = Percentile(round_cpu_us_per_op, 0);
  out.extra["cpu_us_per_op_median_round"] = Percentile(round_cpu_us_per_op, 50);
  out.extra["cpu_us_per_op_max_round"] = Percentile(round_cpu_us_per_op, 100);
  out.e2e["peak_rss_mb"] =
      static_cast<double>(ProcStatusBytes(::getpid(), "VmHWM")) / 1e6;
  out.extra["window_ops"] = static_cast<double>(op_us.size());
  out.extra["op_p50_us"] = Percentile(op_us, 50);
  out.extra["op_p99_us"] = Percentile(op_us, 99);

  const double n = static_cast<double>(readvise_us.size());
  auto& l = out.layers;
  l["advisor.register_us"] = Percentile(register_us, 50);
  l["advisor.readvise_us"] = Percentile(readvise_us, 50);
  l["advisor.pair_checks_per_edit"] = Ratio(
      static_cast<double>(window_end.pair_checks - window_start.pair_checks), n);
  l["advisor.pair_hits_per_edit"] = Ratio(
      static_cast<double>(window_end.pair_hits - window_start.pair_hits), n);
  const double hits = static_cast<double>(memo_end.hits - memo_start.hits);
  const double misses = static_cast<double>(memo_end.misses - memo_start.misses);
  l["advisor.memo_hit_ratio"] = Ratio(hits, hits + misses);
  l["advisor.cold_pair_checks"] = static_cast<double>(cold.pair_checks);

  // Output checks: the incremental advice on an edited application (one
  // more seeded type edited) against a cold advisor on the same
  // application, and every paper workload against the paper's levels.
  const auto last = static_cast<size_t>(g.Uniform(0, kTypes - 1));
  semcor::Application current = original;
  current.types[last] = semcor::MakeEditedType(suite, static_cast<int>(last));
  advisor.RegisterType(current.types[last]);
  semcor::LevelAdvisor cold_advisor(current, semcor::AdvisorOptions{});
  AdviceTable paper_advised, paper_stated;
  PaperLevels(&paper_advised, &paper_stated);
  out.correct = AllPassed(
      {CheckIncrementalMatchesCold(Table(advisor.AdviseAll(), "", true),
                                   Table(cold_advisor.AdviseAll(), "", true)),
       CheckPaperLevels(paper_advised, paper_stated)});
  return out;
}

}  // namespace repobench
