#ifndef REPOBENCH_WORKLOADS_H_
#define REPOBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace repobench {

struct RunConfig {
  uint64_t seed = 1;
  int seconds = 10;  ///< measured window
  bool trace = false;
  std::string serverd;   ///< semcor_serverd binary
  std::string work_dir;  ///< scratch directory of this run (WAL logs)
  int64_t process_start_ns = 0;
};

/// Banking at SSI over the wire, WAL group commit, open loop at a fixed
/// rate and a fixed op count.
RunResult RunBankingSsiDurable(const RunConfig& config);
/// TPC-C at advisor-negotiated levels over the wire, WAL group commit,
/// open loop at a fixed rate and a fixed op count.
RunResult RunTpccNegotiated(const RunConfig& config);
/// One-type edits of a generated application, re-advised incrementally.
RunResult RunAdvisorEdit(const RunConfig& config);

}  // namespace repobench

#endif  // REPOBENCH_WORKLOADS_H_
