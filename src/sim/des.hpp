// Discrete-event simulation engine with a fixed number of cores.
//
// This is the substrate of the speedup-figure reproduction (README
// "Substitutions"): the figures span more cores than the host has, so
// Figures 8/11 are regenerated by simulating the four scheduling models in
// virtual time, parameterized by stage costs measured on the host.
//
// Model: work units occupy one core for a service time; cores dispatch from
// a FIFO run queue (non-preemptive at work-unit granularity, which matches
// the item-granularity execution of all four runtimes). An optional
// Bulldozer-style penalty slows work when more cores are busy than there
// are FPU module pairs, reproducing the >16-core dip of Figure 8.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

namespace hq::sim {

class engine {
 public:
  struct options {
    unsigned cores = 1;
    /// Cores sharing FPUs: with more than `fpu_pairs` busy cores, service
    /// times stretch by up to `fpu_penalty` (0 disables).
    unsigned fpu_pairs = 0;
    double fpu_penalty = 0.0;
  };

  explicit engine(const options& opt) : opt_(opt) {}

  using callback = std::function<void()>;

  /// Submit a work unit: occupies one core for `service` (virtual seconds)
  /// once a core is free; `done` runs at completion (and may submit more).
  void submit(double service, callback done) {
    run_queue_.push_back(pending{service, std::move(done)});
  }

  /// Continuation submit: jumps the run queue, so a completion callback that
  /// calls this models a task that keeps executing on its core (long-running
  /// consumer tasks, merged sequential stages) instead of re-queueing.
  void submit_front(double service, callback done) {
    run_queue_.push_front(pending{service, std::move(done)});
  }

  /// Schedule a pure event at now()+delay without occupying a core.
  void submit_after(double delay, callback fire) {
    events_.push(event{now_ + delay, next_tie_++, std::move(fire), false});
  }

  /// Process events until quiescent; returns the final virtual time.
  double run();

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] unsigned busy() const noexcept { return busy_; }

 private:
  struct pending {
    double service;
    callback done;
  };
  struct event {
    double time;
    std::uint64_t tie;
    callback fire;
    bool frees_core;
    bool operator>(const event& o) const {
      return time != o.time ? time > o.time : tie > o.tie;
    }
  };

  void dispatch();
  [[nodiscard]] double slowdown(unsigned busy_after) const;

  options opt_;
  std::priority_queue<event, std::vector<event>, std::greater<>> events_;
  std::deque<pending> run_queue_;
  unsigned busy_ = 0;
  double now_ = 0;
  std::uint64_t next_tie_ = 0;
};

}  // namespace hq::sim
