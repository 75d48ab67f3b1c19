// Generic pipeline runner.
//
// Executes one pipe::graph description on any backend:
//
//   serial              — the serial elision: stages invoked depth-first on
//                         one thread, emissions passed as stack references.
//                         The correctness reference every other backend is
//                         gated against.
//   hyperqueue          — hyperqueues with the slice (bulk) data path; the
//                         scheduler's placement policy feeds
//                         plan_queue_placement from the graph's own
//                         attachment topology and homes each queue on its
//                         consumer stage's node. Each stage loop is a
//                         stage frame (spawn_stage): the scheduler starts
//                         them in chain order and never nests one inside
//                         another's blocking wait, so with workers >= stages
//                         every stage runs concurrently, and with fewer the
//                         started stages are an upstream prefix that always
//                         progresses (README "Stage scheduling").
//   hyperqueue_element  — same lowering, element-at-a-time pushes/pops on
//                         every edge (Section 4 baseline data path).
//   pthreads            — explicit-thread baseline over bounded_queue: one
//                         thread per serial_in_order stage, `workers`
//                         threads per parallel stage, and multi-level
//                         reorder buffers recovering serial-elision order
//                         in front of every serial_in_order stage.
//   tbb                 — the TBB-style token pipeline baseline
//                         (pipeline/tbb_pipeline.hpp), gathered-list tokens
//                         for expand stages (paper Figure 10a).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/builder.hpp"
#include "sched/scheduler.hpp"

namespace hq::pipe {

enum class backend { serial, hyperqueue, hyperqueue_element, pthreads, tbb };

[[nodiscard]] const char* to_string(backend b) noexcept;

/// Every backend but `serial`, which is the reference the others are gated
/// against.
[[nodiscard]] const std::vector<backend>& parallel_backends();

struct exec_options {
  unsigned workers = 1;
  std::uint64_t seed = 0;
  /// Hyperqueue backend: explicit placement; null = environment-driven
  /// (HQ_PLACEMENT / HQ_TOPOLOGY via the scheduler's default ctor).
  const scheduler::placement_config* placement = nullptr;
  /// Admission control at the pipeline boundary (every backend): gate each
  /// source emission against the in-flight window per the policy. The
  /// window counts source emissions not yet retired by the sink, so it is
  /// calibrated for ~1:1 pipelines; expand stages skew the accounting
  /// (never below zero, but the effective window widens).
  admission_opts admission;
};

/// How a run ended. `failed` covers stage exceptions (including injected
/// faults, core/fault.hpp) and allocation failures; `stalled` means the
/// watchdog (sched/watchdog.hpp) cancelled a hung run.
enum class run_outcome { ok, failed, stalled };

[[nodiscard]] const char* to_string(run_outcome o) noexcept;

struct exec_result {
  double seconds = 0;
  run_outcome outcome = run_outcome::ok;
  /// what() of the failure when outcome != ok (filled by a harness that
  /// catches execute()'s exception; execute() itself throws).
  std::string error;
  /// Hyperqueue backend only: pool counters summed over the chain's queues
  /// and the peak live segment count (zero-steady-state-alloc probes).
  seg_pool_stats pool;
  std::size_t peak_segments = 0;
  /// Hyperqueue backend only: each edge queue's arena home node, in chain
  /// order (-1 = default heap; >= 0 under a placement policy).
  std::vector<int> queue_nodes;
  /// Admission accounting (exec_options::admission; zero when the policy is
  /// none): tokens admitted at the source, tokens shed, and the total time
  /// sources spent blocked on a full window. Queue-level backpressure lives
  /// in `pool` (throttle_waits / throttle_ns / budget_overruns and the byte
  /// footprint fields).
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t admission_wait_ns = 0;
};

/// Run `g` on `b`. Throws graph_error if the description doesn't compile.
/// A stage body that throws cancels the run on every backend: in-flight
/// tokens are reclaimed, worker threads drain out, and the first exception
/// is rethrown here on the calling thread.
exec_result execute(graph& g, backend b, const exec_options& opt = {});

}  // namespace hq::pipe
