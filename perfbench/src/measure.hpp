// Shared pieces of the timed run (end-to-end metrics, tracing off) and the
// traced run (per-layer metrics): configurations, timing a pipe::execute
// call from outside, the per-rep output gate, and summary statistics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/runner.hpp"
#include "workloads.hpp"

namespace perfbench {

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark run reports.
struct outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
};

struct run_args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1;
  unsigned workers = 1;  ///< W: the host's usable CPUs
};

/// One backend at one worker count.
struct config {
  const char* label;
  hq::pipe::backend backend;
  unsigned workers;
};

/// One pipe::execute call, timed around the call.
struct exec_rep {
  double seconds = 0;
  std::string error;  ///< what() of a failed run; empty when it completed
  hq::pipe::exec_result result;
};

exec_rep execute_timed(instance& in, const config& c);

/// Checks every rep's output against the serial elision's and counts
/// attempts and failures; failures are named on stderr.
class output_gate {
 public:
  explicit output_gate(std::string workload) : workload_(std::move(workload)) {}

  void set_reference(bytes ref) { ref_ = std::move(ref); }
  [[nodiscard]] const bytes& reference() const { return ref_; }

  /// Counts one attempt; true when the rep completed with the reference
  /// output.
  bool check(const char* config, int rep, const exec_rep& r, const instance& in);

  /// Counts one attempt of a check that is not a pipeline run (reference
  /// round trips, trace fidelity); `why` empty means it passed.
  bool check(const char* config, int rep, const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::string workload_;
  bytes ref_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// First quartile, median and third quartile, as Python's
/// statistics.quantiles(xs, n=4) gives them; all equal for one sample.
struct quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
quartiles quartiles_of(std::vector<double> xs);

inline double median_of(std::vector<double> xs) { return quartiles_of(std::move(xs)).median; }

outcome run_timed(const workload& wl, const run_args& a);
outcome run_traced(const workload& wl, const run_args& a);

}  // namespace perfbench
