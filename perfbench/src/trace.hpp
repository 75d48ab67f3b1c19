// Span recorder for the benchmark's traced run.
//
// The traced pipelines (workloads.cpp) wrap every stage body in a `scope`,
// which records one span per activation: stage, item sequence number, start,
// end, self time, and the producer's emit time of the consumed item (carried
// in the token by `stamped<T>`). Spans go to the calling thread's log; logs
// outlive their threads (the runtime builds a fresh scheduler per
// pipe::execute call), so the benchmark reads every log after the run.
//
// Not thread-safe across runs: begin_run() and logs() must be called while
// no traced stage body is executing.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "pipeline/builder.hpp"

namespace perfbench::trace {

using ns_t = std::int64_t;

inline ns_t now() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::size_t kMaxStages = 8;

struct span {
  ns_t start = 0;
  ns_t end = 0;
  /// end - start minus the spans nested inside this one on the same thread
  /// (the serial elision calls the next stage from inside emit).
  ns_t self = 0;
  /// Emit time of the consumed item by the previous stage; -1 for sources.
  ns_t emit = -1;
  std::uint64_t seq = 0;
  std::uint32_t stage = 0;
};

/// One thread's spans and emission counts for the current run.
struct thread_log {
  std::vector<span> spans;
  std::array<std::uint64_t, kMaxStages> emitted{};
  /// Time covered by nested spans, one entry per open span.
  std::vector<ns_t> nested;
};

/// Start a new traced run: every log is emptied and handed out afresh.
void begin_run();

/// The calling thread's log for the current run.
thread_log& local();

/// The logs threads claimed since begin_run(), one per thread.
std::vector<const thread_log*> logs();

/// One stage activation, recorded when the scope closes.
class scope {
 public:
  scope(std::uint32_t stage, std::uint64_t seq, ns_t emit)
      : log_(local()), stage_(stage), seq_(seq), emit_(emit) {
    log_.nested.push_back(0);
    start_ = now();
  }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;
  ~scope() {
    const ns_t end = now();
    const ns_t dur = end - start_;
    const ns_t self = dur - log_.nested.back();
    log_.nested.pop_back();
    if (!log_.nested.empty()) log_.nested.back() += dur;
    log_.spans.push_back(span{start_, end, self, emit_, seq_, stage_});
  }

 private:
  thread_log& log_;
  std::uint32_t stage_;
  std::uint64_t seq_;
  ns_t emit_;
  ns_t start_ = 0;
};

/// A token plus the trace fields that travel with it.
template <typename T>
struct stamped {
  T v;
  ns_t emit = 0;
  std::uint64_t seq = 0;
};

/// Emit `v` from stage `stage`, stamped with the emit time.
template <typename T>
void emit(const hq::pipe::emit<stamped<T>>& out, std::uint32_t stage, T&& v,
          std::uint64_t seq) {
  ++local().emitted[stage];
  out(stamped<T>{std::move(v), now(), seq});
}

}  // namespace perfbench::trace
