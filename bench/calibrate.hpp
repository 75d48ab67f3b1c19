// Host calibration of the simulator's overhead constants: measures the
// actual per-operation costs of the runtimes built in this repository so
// the virtual-time models (sim/models.hpp) are parameterized by this
// machine, not by guesses.
#pragma once

#include <cstdio>
#include <vector>

#include "conc/bounded_queue.hpp"
#include "hq.hpp"
#include "pipeline/tbb_pipeline.hpp"
#include "sim/models.hpp"
#include "util/stats.hpp"

namespace hq::bench {

inline sim::overheads calibrate_overheads() {
  sim::overheads ov;

  // Task spawn + schedule + join, amortized over a flat batch.
  {
    scheduler sched(1);
    constexpr int kN = 20000;
    util::stopwatch sw;
    sched.run([&] {
      for (int i = 0; i < kN; ++i) spawn([] {});
      sync();
    });
    ov.task_spawn = sw.seconds() / kN;
  }

  // Hyperqueue push+pop per element (single pushpop task, ring steady state).
  {
    scheduler sched(1);
    constexpr int kN = 100000;
    double secs = 0;
    sched.run([&] {
      hyperqueue<int> q(512);
      util::stopwatch sw;
      spawn(
          [](pushpopdep<int> qq) {
            for (int i = 0; i < kN; ++i) {
              qq.push(i);
              (void)qq.pop();
            }
          },
          (pushpopdep<int>)q);
      sync();
      secs = sw.seconds();
    });
    ov.hq_queue_op = secs / kN;
  }

  // pthread bounded-queue transfer (mutex + condvar, uncontended).
  {
    bounded_queue<int> q(1024);
    constexpr int kN = 100000;
    util::stopwatch sw;
    for (int i = 0; i < kN; ++i) {
      q.push(i);
      (void)q.try_pop();
    }
    ov.pth_queue_op = sw.seconds() / kN;
  }

  // TBB-like token advance: empty 2-filter pipeline, 1 thread.
  {
    constexpr long kN = 20000;
    long next = 0;
    tbbpipe::pipeline p;
    p.add_filter(tbbpipe::filter_mode::serial_in_order, [&](void*) -> void* {
      return next < kN ? reinterpret_cast<void*>(++next) : nullptr;
    });
    p.add_filter(tbbpipe::filter_mode::serial_in_order,
                 [](void*) -> void* { return nullptr; });
    util::stopwatch sw;
    p.run(8, 1);
    ov.tbb_token = sw.seconds() / (2.0 * kN);
  }

  std::printf(
      "calibrated overheads (host): task_spawn=%.2fus hq_queue_op=%.2fus "
      "pth_queue_op=%.2fus tbb_token=%.2fus\n",
      ov.task_spawn * 1e6, ov.hq_queue_op * 1e6, ov.pth_queue_op * 1e6,
      ov.tbb_token * 1e6);
  return ov;
}

/// Per-stage median over 5 host timing passes. `pass` returns one seconds
/// value per stage; a single pass lets one noisy stage timing move every
/// model output from run to run.
template <typename Pass>
std::vector<double> median_stage_times(Pass&& pass) {
  constexpr int kPasses = 5;
  std::vector<std::vector<double>> passes;
  for (int i = 0; i < kPasses; ++i) passes.push_back(pass());
  std::vector<double> med(passes[0].size());
  for (std::size_t s = 0; s < med.size(); ++s) {
    std::vector<double> xs;
    for (const auto& t : passes) xs.push_back(t[s]);
    med[s] = util::summarize(std::move(xs)).median;
  }
  return med;
}

/// The paper's machine shape: 2x AMD Opteron 6272 — 32 cores in 16 modules,
/// each module pair sharing one FPU.
inline sim::machine paper_machine(unsigned cores) {
  return sim::machine{cores, 16, 0.35};
}

}  // namespace hq::bench
