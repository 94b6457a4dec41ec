#ifndef LOS_PERFBENCH_WORKLOADS_H_
#define LOS_PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set at static initialization, before main: setup_s counts from here.
extern const Clock::time_point kProcessStart;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// The result line: correctness verdict, operation counts and metrics.
/// End-to-end metrics are kept only in untraced runs, per-layer metrics
/// only in traced runs.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void EndToEnd(const std::string& name, double value, const char* unit) {
    if (!trace_) metrics_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const char* unit) {
    if (trace_) metrics_.push_back({name, value, unit});
  }
  /// Records a wrong output; the run's verdict becomes false.
  void Wrong(const std::string& what);
  void Attempted(uint64_t n) { attempted_ += n; }
  bool trace() const { return trace_; }
  bool correct() const { return wrong_ == 0; }

  /// The one-line JSON object printed last on stdout.
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  bool trace_;
  uint64_t attempted_ = 0;
  uint64_t wrong_ = 0;
  std::vector<Metric> metrics_;
};

void RunDirectRw(const Args& args, Report* report);
void RunServedRw(const Args& args, Report* report);
void RunUpdatesTweets(const Args& args, Report* report);

}  // namespace perfbench

#endif  // LOS_PERFBENCH_WORKLOADS_H_
