#ifndef REPOBENCH_REPORT_H_
#define REPOBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace repobench {

/// Everything one run measured. End-to-end metrics are computed in every
/// run; per-layer metrics only in a traced one.
struct RunResult {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  /// Extra key/value lines for the results file (span summaries etc.).
  std::map<std::string, double> extra;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metric names and units BENCHMARK.json declares, in its order.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Prints a readable summary, then (as the last stdout line) the JSON
/// object with end-to-end metrics (trace off) or per-layer metrics (trace
/// on). A metric the workload does not exercise reads 0. The whole result
/// also goes to `results_path` as JSON.
void PrintResult(const std::string& workload, const RunResult& result,
                 bool trace, const std::string& results_path);

}  // namespace repobench

#endif  // REPOBENCH_REPORT_H_
