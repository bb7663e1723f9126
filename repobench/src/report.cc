#include "report.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/str_util.h"

namespace repobench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"cpu_us_per_op", "us"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"client.op_p50_us", "us"},
      {"client.op_p99_us", "us"},
      {"client.begin_us", "us"},
      {"client.stmt_us", "us"},
      {"client.commit_us", "us"},
      {"client.round_trips_per_op", "1/op"},
      {"client.backoff_ms_per_op", "ms/op"},
      {"client.attempts_per_op", "1/op"},
      {"net.queue_depth_peak", "count"},
      {"lock.blocks_per_op", "1/op"},
      {"lock.blocked_retries_per_op", "1/op"},
      {"lock.deadlock_victims_per_kop", "1/kop"},
      {"txn.fcw_aborts_per_kop", "1/kop"},
      {"txn.ssi_aborts_per_kop", "1/kop"},
      {"txn.ssi_false_positive_aborts_per_kop", "1/kop"},
      {"txn.step_us.read", "us"},
      {"txn.step_us.write", "us"},
      {"txn.step_us.select", "us"},
      {"txn.step_us.update", "us"},
      {"txn.step_us.insert", "us"},
      {"txn.step_us.agg", "us"},
      {"txn.step_us.commit", "us"},
      {"wal.commits_per_fsync", "1/fsync"},
      {"wal.appends_per_commit", "1/commit"},
      {"wal.bytes_per_commit", "B/commit"},
      {"workload.instantiate_us", "us"},
      {"mem.rss_bytes_per_commit", "B/commit"},
      {"advisor.register_us", "us"},
      {"advisor.readvise_us", "us"},
      {"advisor.pair_checks_per_edit", "1/edit"},
      {"advisor.pair_hits_per_edit", "1/edit"},
      {"advisor.memo_hit_ratio", "ratio"},
      {"advisor.cold_pair_checks", "count"},
      {"load.lateness_p99_us", "us"},
  };
  return kSpecs;
}

namespace {

/// JSON has no NaN or infinity; a metric that could not be computed reads 0.
double Finite(double v) { return std::isfinite(v) ? v : 0; }

double Lookup(const std::map<std::string, double>& m, const char* name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : Finite(it->second);
}

std::string MetricsJson(const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < specs.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", Lookup(values, specs[i].name));
    out += semcor::StrCat(i ? ", " : "", "\"", specs[i].name,
                          "\": {\"value\": ", buf, ", \"unit\": \"",
                          specs[i].unit, "\"}");
  }
  return out + "}";
}

std::string FlatJson(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", Finite(v));
    out += semcor::StrCat(first ? "" : ", ", "\"", semcor::JsonEscape(k),
                          "\": ", buf);
    first = false;
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<MetricSpec>& specs,
                const std::map<std::string, double>& values) {
  std::printf("%s\n", title);
  for (const MetricSpec& m : specs) {
    std::printf("  %-40s %14.3f %s\n", m.name, Lookup(values, m.name), m.unit);
  }
}

}  // namespace

void PrintResult(const std::string& workload, const RunResult& r, bool trace,
                 const std::string& results_path) {
  std::printf("repobench: workload %s, %s run: attempted=%lld failed=%lld "
              "correct=%s\n",
              workload.c_str(), trace ? "traced" : "untraced",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), r.correct ? "true" : "false");
  // The traced run prints its own end-to-end figures too, so the tracing
  // overhead shows beside an untraced run's.
  PrintTable(trace ? "end-to-end (traced run):" : "end-to-end:",
             EndToEndMetrics(), r.e2e);
  if (trace) PrintTable("per-layer:", PerLayerMetrics(), r.layers);

  const std::string head = semcor::StrCat(
      "{\"correct\": ", r.correct ? "true" : "false",
      ", \"attempted\": ", r.attempted, ", \"failed\": ", r.failed);
  const std::string e2e = MetricsJson(EndToEndMetrics(), r.e2e);
  const std::string layers = MetricsJson(PerLayerMetrics(), r.layers);
  if (!results_path.empty()) {
    std::ofstream f(results_path);
    f << head << ", \"workload\": \"" << semcor::JsonEscape(workload)
      << "\", \"trace\": " << (trace ? 1 : 0) << ", \"end_to_end\": " << e2e;
    if (trace) f << ", \"per_layer\": " << layers;
    f << ", \"extra\": " << FlatJson(r.extra) << "}\n";
  }
  std::printf("%s, \"metrics\": %s}\n", head.c_str(),
              (trace ? layers : e2e).c_str());
  std::fflush(stdout);
}

}  // namespace repobench
