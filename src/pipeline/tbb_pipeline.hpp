// TBB-style token pipeline baseline (the "TBB" model of the evaluation).
//
// Reimplements the scheduling of Intel TBB's parallel_pipeline: a bounded
// number of tokens flows through a chain of filters; parallel filters run
// any number of tokens concurrently, serial_in_order filters admit tokens
// strictly in creation order, one at a time; a worker carries its token
// through consecutive filters (filter fusion) to preserve locality.
// The token bound is the knob that must be tuned to the machine — the
// scale-freedom critique of the paper (Section 7.1).
//
// The engine is type-erased (void* items): the runner's tbb backend
// (pipeline/runner.cpp) adds each filter with add_filter and a destroy hook
// for its input items.
//
// Failure semantics: a filter that throws cancels the run. The engine
// records the first exception, stops admitting source tokens, reclaims
// every queued/parked token through the filters' destroy hooks (so
// in_flight_ can reach zero and the workers drain out), and run() rethrows
// on the calling thread. Filters must consume their input even when they
// throw (the runner's filters own it through a unique_ptr).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace hq::tbbpipe {

enum class filter_mode { serial_in_order, parallel };

/// A token pipeline. Add filters first-to-last, then run().
/// The first filter is the source: it is invoked with nullptr and returns
/// a new item, or nullptr for end-of-input. The last filter's return value
/// is ignored (conventionally nullptr).
class pipeline {
 public:
  pipeline() = default;
  pipeline(const pipeline&) = delete;
  pipeline& operator=(const pipeline&) = delete;

  /// @param destroy destroys one of this filter's *input* items; used to
  ///   reclaim tokens queued or parked at the filter when a failure tears
  ///   the run down (may be empty for filters whose input is never a live
  ///   heap token, e.g. the source).
  void add_filter(filter_mode mode, std::function<void*(void*)> fn,
                  std::function<void(void*)> destroy = {});

  /// Execute until the source is exhausted and all tokens retired. If any
  /// filter threw, rethrows the first such exception after the worker pool
  /// has drained and every in-flight token has been reclaimed.
  /// @param max_tokens maximum tokens in flight (TBB's pipeline capacity)
  /// @param num_threads worker thread count
  void run(std::size_t max_tokens, unsigned num_threads);

 private:
  struct filter {
    filter_mode mode;
    std::function<void*(void*)> fn;
    std::function<void(void*)> destroy;  // destroys one *input* item
    // serial_in_order state:
    std::uint64_t next_seq = 0;
    bool busy = false;
    std::map<std::uint64_t, void*> parked;  // seq -> item waiting to enter
  };

  struct token {
    std::uint64_t seq;
    void* data;
    std::size_t next_filter;
  };

  void worker_loop();
  bool try_take(token* out);
  /// Record the first failure, stop the source, and reclaim every queued
  /// and parked token so in_flight_ can reach zero. Caller holds mu_.
  void fail_locked(std::exception_ptr e);
  /// Destroy one token waiting to *enter* filters_[idx]. Caller holds mu_.
  void destroy_input_locked(std::size_t idx, void* data);

  std::vector<filter> filters_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<token> ready_;
  std::uint64_t next_token_seq_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t max_tokens_ = 1;
  bool input_done_ = false;
  std::exception_ptr err_;               // first failure (guarded by mu_)
  std::atomic<bool> cancelled_{false};   // lock-free poll for carrying workers
};

}  // namespace hq::tbbpipe
