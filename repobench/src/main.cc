// repobench_driver: runs one workload of the repository benchmark and
// prints its result as the last line of stdout. run.py builds it and
// forwards its arguments:
//
//   repobench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: banking-ssi-durable, tpcc-negotiated, advisor-edit.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "common/str_util.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace repobench;
  RunConfig cfg;
  cfg.process_start_ns = MonoNs();
  cfg.serverd = REPOBENCH_SERVERD;

  std::map<std::string, std::string> args = {{"--seed", "1"},
                                             {"--seconds", "10"},
                                             {"--trace", "0"},
                                             {"--work-dir", ".bench_work"},
                                             {"--results-dir", ".bench_results"}};
  for (int i = 1; i + 1 < argc; i += 2) {
    if (args.count(argv[i]) == 0 && std::string(argv[i]) != "--workload") {
      std::fprintf(stderr, "repobench: unknown flag %s\n", argv[i]);
      return 2;
    }
    args[argv[i]] = argv[i + 1];
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "repobench: flag %s has no value\n", argv[argc - 1]);
    return 2;
  }
  const std::string workload = args["--workload"];
  cfg.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  cfg.seconds = std::atoi(args["--seconds"].c_str());
  cfg.trace = args["--trace"] == "1";
  if (cfg.seconds < 1 || cfg.seconds > 60) {
    std::fprintf(stderr, "repobench: --seconds must be 1..60\n");
    return 2;
  }

  RunResult (*run)(const RunConfig&) = nullptr;
  if (workload == "banking-ssi-durable") run = RunBankingSsiDurable;
  if (workload == "tpcc-negotiated") run = RunTpccNegotiated;
  if (workload == "advisor-edit") run = RunAdvisorEdit;
  if (run == nullptr) {
    std::fprintf(stderr,
                 "repobench: --workload must be banking-ssi-durable, "
                 "tpcc-negotiated or advisor-edit\n");
    return 2;
  }

  namespace fs = std::filesystem;
  cfg.work_dir = semcor::StrCat(args["--work-dir"], "/", workload, "-", ::getpid());
  fs::remove_all(cfg.work_dir);
  fs::create_directories(cfg.work_dir);
  fs::create_directories(args["--results-dir"]);
  const RunResult result = run(cfg);
  fs::remove_all(cfg.work_dir);
  PrintResult(workload, result, cfg.trace,
              semcor::StrCat(args["--results-dir"], "/", workload, "-seed",
                             cfg.seed, "-trace", cfg.trace ? 1 : 0, ".json"));
  return 0;
}
