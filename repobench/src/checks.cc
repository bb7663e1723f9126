#include "checks.h"

#include <cstdio>
#include <limits>
#include <string>

#include "common/str_util.h"

namespace repobench {

namespace {

using semcor::ItemName;
using semcor::StrCat;

/// Marks a value the store could not produce as an integer; every check
/// rejects it.
constexpr int64_t kMissing = std::numeric_limits<int64_t>::min();

int64_t ReadInt(const semcor::Store& store, const std::string& item) {
  semcor::Result<semcor::Value> v = store.ReadItemCommitted(item);
  if (!v.ok() || !v.value().is_int()) return kMissing;
  return v.value().AsInt();
}

int64_t IntAttr(const semcor::Tuple& row, const std::string& attr) {
  auto it = row.find(attr);
  if (it == row.end() || !it->second.is_int()) return kMissing;
  return it->second.AsInt();
}

/// Per-index equality of a recovered vector with its ledger counterpart.
Failures CompareEach(const char* what, const std::vector<int64_t>& got,
                     const std::vector<int64_t>& want, int64_t offset = 0) {
  Failures f;
  if (got.size() != want.size()) {
    f.push_back(StrCat(what, ": ", got.size(), " entries, expected ",
                       want.size()));
    return f;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] == kMissing || got[i] - offset != want[i]) {
      f.push_back(StrCat(what, "[", i, "] = ", got[i], ", expected ",
                         want[i] + offset));
    }
  }
  return f;
}

}  // namespace

bool AllPassed(const std::vector<CheckOutcome>& outcomes) {
  bool ok = true;
  for (const CheckOutcome& c : outcomes) {
    for (const std::string& f : c.failures) {
      std::fprintf(stderr, "repobench: check %s FAILED: %s\n", c.name.c_str(),
                   f.c_str());
      ok = false;
    }
    if (!c.self_test_failed_as_expected) {
      std::fprintf(stderr,
                   "repobench: check %s accepted a corrupted value\n",
                   c.name.c_str());
      ok = false;
    }
  }
  return ok;
}

// ---- banking ----

void BankingLedger::Add(const TxnOp& op) {
  const size_t i = static_cast<size_t>(op.Param("i"));
  if (i >= deposits.size()) {
    deposits.resize(i + 1, 0);
    withdrawals.resize(i + 1, 0);
  }
  if (IsDeposit(op)) {
    deposits[i] += op.Param("d");
  } else {
    withdrawals[i] += op.Param("w");
  }
}

BankingState ReadBanking(const semcor::Store& store, int accounts) {
  BankingState s;
  for (int i = 0; i < accounts; ++i) {
    s.sav.push_back(ReadInt(store, ItemName("acct_sav", i, "bal")));
    s.ch.push_back(ReadInt(store, ItemName("acct_ch", i, "bal")));
  }
  return s;
}

std::vector<CheckOutcome> CheckBanking(const BankingState& state,
                                       const BankingLedger& ledger_in) {
  // Every account starts at 10 + 10.
  constexpr int64_t kOpening = 20;
  BankingLedger ledger = ledger_in;
  ledger.deposits.resize(state.sav.size(), 0);
  ledger.withdrawals.resize(state.sav.size(), 0);
  std::vector<CheckOutcome> out;

  // The paper's I_i, which SSI must preserve and SNAPSHOT's write skew
  // breaks.
  out.push_back(RunCheck<BankingState>(
      "banking.invariant_I_i", state,
      [](const BankingState& s) {
        Failures f;
        for (size_t i = 0; i < s.sav.size(); ++i) {
          if (s.sav[i] == kMissing || s.ch[i] == kMissing ||
              s.sav[i] + s.ch[i] < 0) {
            f.push_back(StrCat("account ", i, ": sav ", s.sav[i], " + ch ",
                               s.ch[i], " < 0"));
          }
        }
        return f;
      },
      [](BankingState& s) { s.sav[0] = -s.ch[0] - 1; }));

  // Money: deposits always land; an acknowledged withdrawal takes its
  // amount or nothing (it skips when the balance does not cover it).
  out.push_back(RunCheck<BankingState>(
      "banking.money_bounds", state,
      [&ledger](const BankingState& s) {
        Failures f;
        int64_t total = 0, lo = 0, hi = 0;
        for (size_t i = 0; i < s.sav.size(); ++i) {
          if (s.sav[i] == kMissing || s.ch[i] == kMissing) {
            f.push_back(StrCat("account ", i, ": balance missing"));
            continue;
          }
          const int64_t bal = s.sav[i] + s.ch[i];
          const int64_t a_hi = kOpening + ledger.deposits[i];
          const int64_t a_lo = a_hi - ledger.withdrawals[i];
          if (bal < a_lo || bal > a_hi) {
            f.push_back(StrCat("account ", i, ": balance ", bal,
                               " outside [", a_lo, ", ", a_hi, "]"));
          }
          total += bal;
          lo += a_lo;
          hi += a_hi;
        }
        if (total < lo || total > hi) {
          f.push_back(StrCat("total ", total, " outside [", lo, ", ", hi, "]"));
        }
        return f;
      },
      [](BankingState& s) { s.ch[0] += 1'000'000'000; }));
  return out;
}

// ---- TPC-C ----

TpccLedger::TpccLedger(const TpccShape& shape)
    : new_orders(static_cast<size_t>(shape.warehouses * shape.districts), 0),
      order_amount(new_orders.size(), 0),
      warehouse_paid(static_cast<size_t>(shape.warehouses), 0),
      customer_paid(static_cast<size_t>(shape.warehouses * shape.customers),
                    0) {}

void TpccLedger::Add(const TxnOp& op) {
  if (op.type == "TNewOrder") {
    const size_t d = static_cast<size_t>(op.Param("d"));
    new_orders.at(d) += 1;
    order_amount.at(d) += 5 * op.Param("qty");
  } else if (op.type == "TPayment") {
    warehouse_paid.at(static_cast<size_t>(op.Param("w"))) += op.Param("amount");
    customer_paid.at(static_cast<size_t>(op.Param("c"))) += op.Param("amount");
  }
}

TpccState ReadTpcc(const semcor::Store& store, const TpccShape& shape) {
  TpccState s;
  const int districts = shape.warehouses * shape.districts;
  const int customers = shape.warehouses * shape.customers;
  for (int d = 0; d < districts; ++d) {
    s.next_o_id.push_back(ReadInt(store, ItemName("district", d, "next_o_id")));
    s.district_ytd.push_back(ReadInt(store, ItemName("district", d, "ytd")));
  }
  for (int w = 0; w < shape.warehouses; ++w) {
    s.warehouse_ytd.push_back(ReadInt(store, ItemName("warehouse", w, "ytd")));
  }
  for (int c = 0; c < customers; ++c) {
    s.balance.push_back(ReadInt(store, ItemName("customer", c, "balance")));
    s.ytd_payment.push_back(
        ReadInt(store, ItemName("customer", c, "ytd_payment")));
  }
  s.orders.assign(static_cast<size_t>(districts), 0);
  s.oline_amount.assign(static_cast<size_t>(districts), 0);
  auto district = [districts](const semcor::Tuple& row) -> int64_t {
    const int64_t d = IntAttr(row, "d_id");
    return d >= 0 && d < districts ? d : -1;
  };
  for (const semcor::Tuple& row : store.CommittedTuples("OORDER")) {
    const int64_t d = district(row);
    if (d < 0) {
      s.stray_rows++;
    } else {
      s.orders[static_cast<size_t>(d)]++;
    }
  }
  for (const semcor::Tuple& row : store.CommittedTuples("OLINE")) {
    const int64_t d = district(row);
    const int64_t amount = IntAttr(row, "amount");
    if (d < 0 || amount == kMissing) {
      s.stray_rows++;
    } else {
      s.oline_amount[static_cast<size_t>(d)] += amount;
    }
  }
  for (const semcor::Tuple& row : store.CommittedTuples("STOCK")) {
    s.stock.push_back(IntAttr(row, "quantity"));
  }
  return s;
}

std::vector<CheckOutcome> CheckTpcc(const TpccState& state,
                                    const TpccLedger& ledger,
                                    const TpccShape& shape) {
  using Check = std::function<Failures(const TpccState&)>;
  using Corrupt = std::function<void(TpccState&)>;
  std::vector<CheckOutcome> out;
  auto add = [&](const char* name, Check check, Corrupt corrupt) {
    out.push_back(RunCheck<TpccState>(name, state, check, corrupt));
  };
  add("tpcc.next_o_id",
      [&](const TpccState& s) {
        return CompareEach("next_o_id - 1", s.next_o_id, ledger.new_orders, 1);
      },
      [](TpccState& s) { s.next_o_id[0] += 1; });
  add("tpcc.order_rows",
      [&](const TpccState& s) {
        Failures f = CompareEach("OORDER rows", s.orders, ledger.new_orders);
        if (s.stray_rows != 0) {
          f.push_back(StrCat(s.stray_rows, " order rows name no district"));
        }
        return f;
      },
      [](TpccState& s) { s.orders[0] += 1; });
  add("tpcc.oline_amount",
      [&](const TpccState& s) {
        return CompareEach("OLINE amount", s.oline_amount, ledger.order_amount);
      },
      [](TpccState& s) { s.oline_amount[0] += 5; });
  add("tpcc.district_ytd",
      [&](const TpccState& s) {
        return CompareEach("district ytd", s.district_ytd, ledger.order_amount);
      },
      [](TpccState& s) { s.district_ytd[0] += 5; });
  add("tpcc.warehouse_ytd",
      [&](const TpccState& s) {
        return CompareEach("warehouse ytd", s.warehouse_ytd,
                           ledger.warehouse_paid);
      },
      [](TpccState& s) { s.warehouse_ytd[0] += 1; });
  add("tpcc.customer_ytd_payment",
      [&](const TpccState& s) {
        return CompareEach("customer ytd_payment", s.ytd_payment,
                           ledger.customer_paid);
      },
      [](TpccState& s) { s.ytd_payment[0] += 1; });
  add("tpcc.customer_conserved",
      [](const TpccState& s) {
        Failures f;
        for (size_t c = 0; c < s.balance.size(); ++c) {
          if (s.balance[c] == kMissing || s.ytd_payment[c] == kMissing ||
              s.balance[c] + s.ytd_payment[c] != 100) {
            f.push_back(StrCat("customer ", c, ": balance ", s.balance[c],
                               " + ytd_payment ", s.ytd_payment[c], " != 100"));
          }
        }
        return f;
      },
      [](TpccState& s) { s.balance[0] -= 1; });
  const size_t stock_rows =
      static_cast<size_t>(shape.warehouses) * static_cast<size_t>(shape.items);
  add("tpcc.stock_range",
      [stock_rows](const TpccState& s) {
        Failures f;
        if (s.stock.size() != stock_rows) {
          f.push_back(StrCat("STOCK has ", s.stock.size(), " rows, expected ",
                             stock_rows));
        }
        for (size_t i = 0; i < s.stock.size(); ++i) {
          if (s.stock[i] < 0 || s.stock[i] > 100) {
            f.push_back(StrCat("stock row ", i, ": quantity ", s.stock[i],
                               " outside [0, 100]"));
          }
        }
        return f;
      },
      [](TpccState& s) { s.stock[0] = 101; });
  return out;
}

// ---- advisor ----

namespace {

Failures CompareAdvice(const AdviceTable& got, const AdviceTable& want) {
  Failures f;
  if (got.size() != want.size()) {
    f.push_back(StrCat(got.size(), " advised types, expected ", want.size()));
    return f;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      f.push_back(StrCat(got[i].type, ": level ", got[i].level, " snapshot ",
                         got[i].snapshot_ok ? 1 : 0, ", expected ",
                         want[i].type, ": level ", want[i].level, " snapshot ",
                         want[i].snapshot_ok ? 1 : 0));
    }
  }
  return f;
}

void CorruptFirstLevel(AdviceTable& t) {
  if (!t.empty()) t[0].level = (t[0].level + 1) % 7;
}

}  // namespace

CheckOutcome CheckIncrementalMatchesCold(const AdviceTable& incremental,
                                         const AdviceTable& cold) {
  return RunCheck<AdviceTable>(
      "advisor.incremental_equals_cold", incremental,
      [&cold](const AdviceTable& t) { return CompareAdvice(t, cold); },
      CorruptFirstLevel);
}

CheckOutcome CheckPaperLevels(const AdviceTable& advised,
                              const AdviceTable& paper) {
  return RunCheck<AdviceTable>(
      "advisor.paper_levels", advised,
      [&paper](const AdviceTable& t) { return CompareAdvice(t, paper); },
      CorruptFirstLevel);
}

}  // namespace repobench
