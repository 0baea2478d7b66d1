// wcoj benchmark driver.
//
//   perfbench_driver --workload <cyclic_lftj|minesweeper_resample|served_mix>
//                    --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//   perfbench_driver --self-test --out-dir <dir>
//
// Prints the run's result as one JSON line, last on stdout: whether
// every answer matched the independent check, operations attempted and
// failed, and the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Exit code 0 iff the run completed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\n"
               "       perfbench_driver --self-test --out-dir DIR\n"
               "workloads: cyclic_lftj minesweeper_resample served_mix\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start = perfbench::Clock::now();
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--self-test") {
      self_test = true;
    } else if (flag == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else {
      Usage();
      return 2;
    }
  }
  if (options.out_dir.empty()) {
    Usage();
    return 2;
  }
  if (self_test) return perfbench::RunSelfTest(options.out_dir);
  if (!(options.seconds > 0)) {
    Usage();
    return 2;
  }
  if (options.trace) perfbench::EnableHeapAccounting();
  perfbench::RunResult result;
  bool ran = false;
  if (options.workload == "cyclic_lftj") {
    ran = perfbench::RunCyclicLftj(options, &result);
  } else if (options.workload == "minesweeper_resample") {
    ran = perfbench::RunMinesweeperResample(options, &result);
  } else if (options.workload == "served_mix") {
    ran = perfbench::RunServedMix(options, &result);
  } else {
    Usage();
    return 2;
  }
  return ran && perfbench::PrintResult(result) ? 0 : 1;
}
