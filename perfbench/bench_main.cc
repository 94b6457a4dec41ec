// End-to-end benchmark of the three learned set structures.
//
//   los_perfbench --workload direct-rw|served-rw|updates-tweets
//                 --seed N --seconds S --trace 0|1
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. See README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "nn/ops.h"
#include "workloads.h"

namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

void Report::Wrong(const std::string& what) {
  if (wrong_ < 10) std::fprintf(stderr, "WRONG: %s\n", what.c_str());
  ++wrong_;
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  // Every operation the workloads attempt is expected to succeed; a wrong
  // answer flips "correct" instead of counting as a failed operation.
  out += ", \"failed\": 0, \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      args->workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      args->seed = std::strtoull(val, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      args->seconds = std::atof(val);
    } else if (std::strcmp(key, "--trace") == 0) {
      args->trace = std::atoi(val) != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  // The nn kernels run inline on the calling thread: the thread counts
  // stated in README.md are then the whole story, not hardware_concurrency.
  los::nn::SetKernelThreading(false);

  perfbench::Report report(args.trace);
  if (args.workload == "direct-rw") {
    perfbench::RunDirectRw(args, &report);
  } else if (args.workload == "served-rw") {
    perfbench::RunServedRw(args, &report);
  } else if (args.workload == "updates-tweets") {
    perfbench::RunUpdatesTweets(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
