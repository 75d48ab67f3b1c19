// The benchmark's three workloads, each a pipeline over seeded inputs:
//
//   bzip2-coarse  apps::bzip2::describe_pipeline, 4 MiB of gen_text in
//                 32 KiB blocks (128 items of ~4 ms);
//   dedup-nested  apps::dedup::describe_pipeline, 8 MiB gen_archive with
//                 50% duplicates, 64 KiB coarse / ~2 KiB fine chunks;
//   records-fine  read -> parallel sha1 fingerprint -> in-order fold over
//                 the lines of 32 MiB of gen_text (~450k records).
//
// Each workload describes its pipeline twice: as the app describes it (the
// timed runs), and re-described from the same public kernels with every
// stage body inside a trace span (the traced run), stage kinds and edge
// options copied from the app's graph.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/builder.hpp"

namespace perfbench {

using bytes = std::vector<std::uint8_t>;

/// One described pipeline plus the state its stages write. The stage bodies
/// hold pointers into the instance, so it stays where it was made.
class instance {
 public:
  instance() = default;
  instance(const instance&) = delete;
  instance& operator=(const instance&) = delete;
  virtual ~instance() = default;

  /// The run's result, comparable byte for byte across backends.
  [[nodiscard]] virtual bytes output() const = 0;

  hq::pipe::graph g;
};

/// Stage names by role: `work` is the heavy parallel stage, `source` and
/// `sink` the chain ends.
struct stage_roles {
  const char* source;
  const char* work;
  const char* sink;
};

class workload {
 public:
  workload() = default;
  workload(const workload&) = delete;
  workload& operator=(const workload&) = delete;
  virtual ~workload() = default;

  [[nodiscard]] virtual std::size_t input_bytes() const = 0;
  [[nodiscard]] virtual stage_roles roles() const = 0;
  /// The pipeline as the app describes it.
  [[nodiscard]] virtual std::unique_ptr<instance> describe() const = 0;
  /// The same pipeline with every stage body traced; kinds and edge options
  /// come from `app`, a graph made by describe().
  [[nodiscard]] virtual std::unique_ptr<instance> describe_traced(
      const hq::pipe::graph& app) const = 0;
  /// Compare a run's output against a reference computed without the
  /// runtime. Returns an empty string when they agree.
  [[nodiscard]] virtual std::string check_reference(const bytes& out) const = 0;
};

/// Input sizes: full, or tiny for the self-test.
enum class scale { full, tiny };

/// The workload called `name` over inputs generated from `seed`; null for
/// an unknown name.
std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, scale s);

[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench
