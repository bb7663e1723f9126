#ifndef REPOBENCH_GEN_H_
#define REPOBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace repobench {

/// The benchmark's own input generator (SplitMix64), so the inputs depend
/// only on --seed and this file, never on the program's random streams.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// True with probability p.
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// Independent stream `stream` of a run seeded with `seed`.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Gen g(seed * 0x100000001B3ull + stream);
  return g.Next();
}

/// One business operation: a transaction type and its explicit BEGIN
/// parameters, all integers.
struct TxnOp {
  std::string type;
  std::vector<std::pair<std::string, int64_t>> params;

  int64_t Param(const std::string& name) const {
    for (const auto& [k, v] : params) {
      if (k == name) return v;
    }
    return 0;
  }
};

/// Banking (the paper's Example 3): deposits and withdrawals, 1..5 each,
/// over `accounts` accounts, a quarter of the ops per type.
inline TxnOp NextBankingOp(Gen& g, int accounts) {
  static const char* const kTypes[] = {"Withdraw_sav", "Withdraw_ch",
                                       "Deposit_sav", "Deposit_ch"};
  const int t = static_cast<int>(g.Uniform(0, 3));
  TxnOp op;
  op.type = kTypes[t];
  op.params = {{"i", g.Uniform(0, accounts - 1)},
               {t < 2 ? "w" : "d", g.Uniform(1, 5)}};
  return op;
}

inline bool IsDeposit(const TxnOp& op) { return op.type[0] == 'D'; }

/// TPC-C sizing; districts and customers are per warehouse and addressed
/// by global index (w * per_warehouse + k), as the program's schema does.
struct TpccShape {
  int warehouses = 2;
  int districts = 2;
  int customers = 8;
  int items = 16;
};

/// TPC-C standard mix (.45/.43/.04/.04/.04) with 10% remote supply
/// warehouses and 15% remote Payment customers. NewOrder carries no
/// `rollback` parameter (see README: the 1% rollback is absent).
inline TxnOp NextTpccOp(Gen& g, const TpccShape& s) {
  const int64_t home = g.Uniform(0, s.warehouses - 1);
  auto remote = [&]() -> int64_t {
    if (s.warehouses < 2) return home;
    const int64_t r = g.Uniform(0, s.warehouses - 2);
    return r >= home ? r + 1 : r;
  };
  const int64_t pick = g.Uniform(0, 99);
  TxnOp op;
  if (pick < 45) {
    op.type = "TNewOrder";
    const int64_t d = home * s.districts + g.Uniform(0, s.districts - 1);
    const int64_t c = home * s.customers + g.Uniform(0, s.customers - 1);
    const int64_t item = g.Uniform(0, s.items - 1);
    const int64_t supply = g.Chance(0.10) ? remote() : home;
    op.params = {{"d", d}, {"c", c}, {"item", item}, {"supply_w", supply},
                 {"qty", g.Uniform(1, 10)}};
  } else if (pick < 88) {
    op.type = "TPayment";
    const int64_t cust_wh = g.Chance(0.15) ? remote() : home;
    op.params = {{"w", home},
                 {"c", cust_wh * s.customers + g.Uniform(0, s.customers - 1)},
                 {"amount", g.Uniform(1, 20)}};
  } else if (pick < 92) {
    op.type = "TOrderStatus";
    op.params = {{"c", home * s.customers + g.Uniform(0, s.customers - 1)}};
  } else if (pick < 96) {
    op.type = "TDelivery";
    op.params = {{"d", home * s.districts + g.Uniform(0, s.districts - 1)}};
  } else {
    op.type = "TStockLevel";
    op.params = {{"w", home}, {"threshold", g.Uniform(5, 50)}};
  }
  return op;
}

}  // namespace repobench

#endif  // REPOBENCH_GEN_H_
