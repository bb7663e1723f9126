#ifndef REPOBENCH_CHECKS_H_
#define REPOBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gen.h"
#include "storage/store.h"

namespace repobench {

/// Output checks. Each compares the program's output with a computation
/// made apart from it (the client's ledger of acknowledged commits, the
/// paper's stated levels, a cold re-check) or with a property the method
/// must have. A check returns its failures; empty means it passed.
using Failures = std::vector<std::string>;

/// One named check, plus its self-test: the same check fed one corrupted
/// value, which must make it fail.
struct CheckOutcome {
  std::string name;
  Failures failures;
  bool self_test_failed_as_expected = false;
};

/// Runs `check` on `state`, then on a copy that `corrupt` damaged.
template <typename State>
CheckOutcome RunCheck(const std::string& name, const State& state,
                      const std::function<Failures(const State&)>& check,
                      const std::function<void(State&)>& corrupt) {
  CheckOutcome out;
  out.name = name;
  out.failures = check(state);
  State bad = state;
  corrupt(bad);
  out.self_test_failed_as_expected = !check(bad).empty();
  return out;
}

/// True when every check passed and every self-test showed its check can
/// fail; failures are printed to stderr.
bool AllPassed(const std::vector<CheckOutcome>& outcomes);

// ---- banking ----

/// Committed balances, recovered from the WAL.
struct BankingState {
  std::vector<int64_t> sav, ch;
};
/// Acknowledged deposits and withdrawal amounts per account.
struct BankingLedger {
  std::vector<int64_t> deposits, withdrawals;
  void Add(const TxnOp& op);
};
BankingState ReadBanking(const semcor::Store& store, int accounts);
std::vector<CheckOutcome> CheckBanking(const BankingState& state,
                                       const BankingLedger& ledger);

// ---- TPC-C ----

struct TpccState {
  std::vector<int64_t> next_o_id, district_ytd, orders, oline_amount;  // per district
  std::vector<int64_t> warehouse_ytd;                                  // per warehouse
  std::vector<int64_t> balance, ytd_payment;                           // per customer
  std::vector<int64_t> stock;                                          // every row
  int64_t stray_rows = 0;  ///< OORDER/OLINE rows naming no district
};
struct TpccLedger {
  std::vector<int64_t> new_orders, order_amount;  // per district
  std::vector<int64_t> warehouse_paid;            // per warehouse
  std::vector<int64_t> customer_paid;             // per customer
  explicit TpccLedger(const TpccShape& shape);
  void Add(const TxnOp& op);
};
TpccState ReadTpcc(const semcor::Store& store, const TpccShape& shape);
std::vector<CheckOutcome> CheckTpcc(const TpccState& state,
                                    const TpccLedger& ledger,
                                    const TpccShape& shape);

// ---- advisor ----

/// One row of advice: the level index the §5 ladder chose, and whether
/// SNAPSHOT is also correct.
struct AdviceRow {
  std::string type;
  int level = 0;
  bool snapshot_ok = false;
  bool operator==(const AdviceRow&) const = default;
};
using AdviceTable = std::vector<AdviceRow>;

/// Incremental advice after the edit stream against a cold advisor on the
/// same edited application.
CheckOutcome CheckIncrementalMatchesCold(const AdviceTable& incremental,
                                         const AdviceTable& cold);
/// Advice (level only) for each paper workload against the paper's levels.
CheckOutcome CheckPaperLevels(const AdviceTable& advised,
                              const AdviceTable& paper);

}  // namespace repobench

#endif  // REPOBENCH_CHECKS_H_
