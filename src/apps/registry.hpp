// App harness over the generic pipeline runner.
//
// run_app(name, backend, params) builds one of the three evaluation apps
// (bzip2, dedup, ferret) at test scale, runs its declared pipeline on a
// backend, and compares its output digest against a memoized
// serial-elision reference: the output-equality gate lives here once
// instead of being re-implemented per app. The conformance and failure
// tests drive every backend through it.
#pragma once

#include <cstdint>
#include <string>

#include "pipeline/runner.hpp"

namespace hq::apps {

struct app_params {
  unsigned workers = 1;
  std::uint64_t seed = 0;
};

struct app_run {
  pipe::exec_result exec;
  std::string digest;     ///< this run's output digest
  std::string reference;  ///< serial-elision digest for (app, seed)
  /// digest == reference. False whenever exec.outcome != run_outcome::ok
  /// (a failed run leaves digest empty rather than reporting partial
  /// output as if it were a result).
  bool ok = false;
};

/// Build app `name` ("bzip2", "dedup" or "ferret") with `p`, run it on `b`,
/// and gate the result against the memoized serial-elision reference
/// digest. A run that throws is reported through exec.outcome/error; a
/// miswired pipeline (pipe::graph_error) propagates. Throws
/// std::out_of_range for unknown apps.
app_run run_app(const std::string& name, pipe::backend b, const app_params& p);

}  // namespace hq::apps
