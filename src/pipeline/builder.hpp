// Declarative pipeline front-end: the stage-graph builder.
//
// The paper's programming model makes the hyperqueue the abstraction, but
// every app still hand-wires its variant plumbing: queue construction,
// dispatcher loops, reorder buffers, thread pools. This builder absorbs that
// wiring the way Pipeflow does for modern-C++ pipelines: an app declares a
// linear chain of typed stages
//
//   pipe::graph g;
//   auto src = g.source<block>("read",     [&](pipe::emit<block> out) {...});
//   auto cmp = g.stage<block, block>("compress", pipe::stage_kind::parallel,
//                                    [](block&& b, pipe::emit<block> out) {...});
//   auto snk = g.sink<block>("write", pipe::stage_kind::serial_in_order,
//                            [&](block&& b) {...});
//   g.connect(src, cmp, opts);   // per-edge knobs travel on the connection
//   g.connect(cmp, snk, opts);
//
// and the runner (pipeline/runner.hpp) lowers the same description onto the
// serial elision, hyperqueues (slice or element data path), the pthreads
// baseline, or the TBB baseline. Stage kinds, as in Pipeflow's two pipe
// types:
//
//   serial_in_order — one in-flight activation, tokens in serial-elision
//                     order (sources, sinks and stateful middle stages);
//   parallel        — any number of concurrent activations.
//
// Every backend delivers serial-elision order to every serial_in_order
// stage, so every backend produces the elision's output.
//
// `expand` stages may emit any number of tokens per input (dedup's
// coarse->refine fan-out); plain `stage`s emit exactly one. Per-edge knobs
// (edge_opts) carry the hyperqueue segment length, the slice batch and the
// bounded-queue capacity of the pthreads baseline — the numbers the
// hand-rolled variants hard-coded. The data path (slices or single
// elements) is a backend choice, not an edge knob.
//
// Misuse (type-mismatched edges, unattached stages, parallel sinks) throws
// graph_error at connect()/compile() time. The compiled chain is also all
// the hyperqueue backend needs to home each queue on its consumer's block
// of stages under a placement policy, so callers never pass a placement.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/fault.hpp"
#include "core/hyperqueue.hpp"
#include "sched/spawn.hpp"

namespace hq::pipe {

enum class stage_kind { serial_in_order, parallel };

[[nodiscard]] const char* to_string(stage_kind k) noexcept;

/// Per-edge tuning knobs. One description drives every backend, so the
/// knobs cover all of them; each backend reads the subset it understands.
struct edge_opts {
  /// Bounded-queue slots in the pthreads baseline (the PARSEC-style
  /// hand-wired `bounded_queue<item> q(64)` numbers, now declarative).
  std::size_t capacity = 64;
  /// Tokens moved per slice grant / per dispatched batch (Section 5.2).
  std::size_t slice_batch = 16;
  /// Hyperqueue segment length (Section 5.1); 0 = 2 * slice_batch so a
  /// batch normally fits one contiguous grant.
  std::size_t segment_length = 0;
  /// Memory budget of this edge's hyperqueue in bytes (0 = the
  /// HQ_QUEUE_BUDGET environment default, itself unlimited when unset).
  /// Producers that would grow the queue past the cap block cooperatively
  /// until the consumer catches up — deterministic backpressure; see
  /// hyperqueue<T>::set_memory_budget.
  std::uint64_t memory_budget = 0;
};

/// How the pipeline boundary treats offered work once the in-flight window
/// is full (tokens emitted by the source minus tokens retired by the sink).
/// Generalizes the hand-rolled selective-sync throttle the bzip2 port used:
///   none         — admit everything (the window is not enforced);
///   block        — source waits (helping the scheduler) for sink progress:
///                  lossless, output identical to the serial elision;
///   shed         — over-window tokens are dropped at the source and
///                  counted: lossy, bounded memory and bounded latency for
///                  the admitted;
///   bounded_wait — block up to max_wait_ns, then shed.
enum class admission_policy { none, block, shed, bounded_wait };

struct admission_opts {
  admission_policy policy = admission_policy::none;
  /// Max in-flight tokens (source emissions not yet retired by the sink).
  std::size_t window = 1024;
  /// bounded_wait only: wait this long for the window to open, then shed.
  std::uint64_t max_wait_ns = 1000000;  // 1 ms
};

/// Thrown on pipeline misuse: type-mismatched edges, unattached stages,
/// missing source/sink, parallel sinks, over-deep fan-out nesting.
class graph_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// The typed emission handle a stage body writes its outputs through. A
/// lightweight (context, function) pair so the same body serves every
/// backend: the runner decides where emitted tokens actually go.
template <typename T>
class emit {
 public:
  using fn_t = void (*)(void*, T&&);
  emit(void* ctx, fn_t fn) : ctx_(ctx), fn_(fn) {}
  void operator()(T&& v) const { fn_(ctx_, std::move(v)); }

 private:
  void* ctx_;
  fn_t fn_;
};

namespace detail {

/// Runtime state of one run's admission window, shared by the source-side
/// gate (admit) and the sink-side retire counter (complete). pipe::execute
/// creates one per run whose policy is not `none`, installs it in the graph
/// for the stage wrappers (graph::source / graph::sink) and reads the
/// counters into exec_result.
struct admission_ctl {
  explicit admission_ctl(admission_opts o) : opts(o) {}

  admission_opts opts;
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> wait_ns{0};
  std::atomic<bool> cancelled{false};
  /// Latched when a block-policy wait escaped because sink completions
  /// stopped entirely (schedule cannot interleave the sink — see admit()).
  /// While latched, window enforcement is suspended so each further token
  /// does not re-pay the patience wait; cleared as soon as completions
  /// advance again.
  std::atomic<bool> wedged{false};
  std::atomic<std::uint64_t> wedge_done{0};

  /// Gate one offered token. True: admitted (counted). False: shed (counted)
  /// — the caller must drop the token without emitting it. Blocks per the
  /// policy, helping the scheduler when called from a worker, plain backoff
  /// on external driver threads. cancel() unblocks every waiter (they shed).
  bool admit();

  /// Sink-side retirement: opens the window for the next waiter.
  void complete() noexcept {
    completed.fetch_add(1, std::memory_order_release);
  }

  /// Failure teardown: no more admissions, release blocked sources.
  void cancel() noexcept {
    cancelled.store(true, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    // `completed` is loaded first: each token's admit happens-before its
    // complete, so observing N completions (acquire, paired with the
    // release in complete()) implies observing >= N admissions. Clamped at
    // zero anyway — expand stages retire more sink tokens than the source
    // admitted, which would otherwise wrap the unsigned difference.
    const std::uint64_t done = completed.load(std::memory_order_acquire);
    const std::uint64_t adm = admitted.load(std::memory_order_relaxed);
    return adm > done ? adm - done : 0;
  }
};

/// Where a graph's stage wrappers find the admission gate of the run in
/// progress. pipe::execute installs the gate for exactly one run and clears
/// it on every exit path, so it is null between runs and under
/// admission_policy::none. The graph holds the slot on the heap, so the
/// wrappers' pointer to it survives a move of the graph.
struct gate_slot {
  admission_ctl* ctl = nullptr;

  /// Run one stage activation. A throw cancels the gate before it
  /// propagates: a source parked on a full window would otherwise wait for
  /// a sink that is tearing down.
  template <typename F>
  void guard(F&& activation) const {
    try {
      activation();
    } catch (...) {
      if (ctl != nullptr) ctl->cancel();
      throw;
    }
  }
};

/// Type-erased emission: `token` points at a value the callee may move
/// from (value mode) or owns outright (heap mode), per the runner used.
struct erased_emit {
  void* ctx = nullptr;
  void (*fn)(void* ctx, void* token) = nullptr;
};

template <typename T>
emit<T> value_emit(const erased_emit& next) {
  return emit<T>(const_cast<erased_emit*>(&next), [](void* c, T&& v) {
    const auto* e = static_cast<const erased_emit*>(c);
    e->fn(e->ctx, &v);
  });
}

template <typename T>
emit<T> heap_emit(const erased_emit& next) {
  return emit<T>(const_cast<erased_emit*>(&next), [](void* c, T&& v) {
    const auto* e = static_cast<const erased_emit*>(c);
    e->fn(e->ctx, new T(std::move(v)));
  });
}

/// Type-erased handle on one inter-stage hyperqueue, so the runner can
/// construct, place and probe channels without knowing token types.
class hq_chan_base {
 public:
  virtual ~hq_chan_base() = default;
  [[nodiscard]] virtual int node() const = 0;
  [[nodiscard]] virtual seg_pool_stats pool() const = 0;
  [[nodiscard]] virtual std::size_t segments() const = 0;
};

template <typename T>
class hq_chan final : public hq_chan_base {
 public:
  hq_chan(std::size_t seglen, int home_node, std::uint64_t budget_bytes)
      : q(seglen, home_node, budget_bytes) {}
  [[nodiscard]] int node() const override { return q.home_node(); }
  [[nodiscard]] seg_pool_stats pool() const override { return q.pool_stats(); }
  [[nodiscard]] std::size_t segments() const override { return q.segments(); }

  hyperqueue<T> q;
};

/// Resolved data-path knobs of one stage's input/output edges. `bulk`
/// selects the slice path (hyperqueue backend) over element-at-a-time
/// pushes and pops (hyperqueue_element backend) on both edges.
struct hq_knobs {
  std::size_t in_batch = 16;
  std::size_t out_batch = 16;
  bool bulk = true;
};

/// Channel endpoints handed to a stage's hyperqueue lowering (null at the
/// chain ends).
struct hq_stage_ctx {
  hq_chan_base* in = nullptr;
  hq_chan_base* out = nullptr;
  hq_knobs knobs;
};

/// Buffers a stage body's emissions and moves them onto the output queue
/// through write slices (bulk path) or per-value pushes (element path).
template <typename Out>
class hq_emitter {
 public:
  hq_emitter(pushdep<Out>& out, std::size_t batch, bool bulk)
      : out_(out), batch_(batch ? batch : 1), bulk_(bulk) {}
  hq_emitter(const hq_emitter&) = delete;
  hq_emitter& operator=(const hq_emitter&) = delete;
  ~hq_emitter() {
    // The dtor also runs while a stage body unwinds; flush() can allocate a
    // segment, so under allocation-fault injection it may itself throw.
    // Route that failure into the scheduler slot instead of terminating.
    try {
      flush();
    } catch (...) {
      if (scheduler* s = scheduler::current())
        s->record_failure(std::current_exception());
      buf_.clear();
    }
  }

  emit<Out> handle() {
    return emit<Out>(this, [](void* c, Out&& v) {
      static_cast<hq_emitter*>(c)->put(std::move(v));
    });
  }

  void put(Out&& v) {
    if (!bulk_) {
      out_.push(std::move(v));
      return;
    }
    buf_.push_back(std::move(v));
    if (buf_.size() >= batch_) flush();
  }

  void flush() {
    if (!buf_.empty()) {
      push_slices(out_, buf_.begin(), buf_.end(), batch_);
      buf_.clear();
    }
  }

 private:
  pushdep<Out>& out_;
  std::vector<Out> buf_;
  std::size_t batch_;
  bool bulk_;
};

// ---- hyperqueue stage tasks ------------------------------------------------
// One template per stage shape; the graph's per-stage `hq_spawn` closure
// picks the right one and binds the typed channel endpoints. Stage tasks are
// spawned by the runner's root task in chain order with spawn_stage, which
// *is* the serial-elision order the queues' definitive-empty gate relies on
// and the start order the scheduler's stage rules need. Every task borrows
// its stage body from the graph, which outlives the run: a spawn copies a
// pointer, not the std::function (whose closure holds the fault-site string
// and the user body on the heap).

template <typename Out>
using source_body = std::function<void(emit<Out>)>;
template <typename In, typename Out>
using stage_body = std::function<void(In&&, emit<Out>)>;
template <typename In>
using sink_body = std::function<void(In&&)>;

template <typename Out>
void hq_source_task(const source_body<Out>* body, hq_knobs k,
                    pushdep<Out> out) {
  hq_emitter<Out> em(out, k.out_batch, k.bulk);
  (*body)(em.handle());
}

template <typename In, typename Out>
void hq_batch_task(const stage_body<In, Out>* body, hq_knobs k,
                   std::vector<In> work, pushdep<Out> out) {
  hq_emitter<Out> em(out, k.out_batch, k.bulk);
  for (auto& v : work) (*body)(std::move(v), em.handle());
}

/// Parallel stage: a dispatcher pops batches (read slices on the bulk path,
/// single values on the element path) and spawns one child per batch; the
/// hyperqueue keeps the children's output in spawn (= serial-elision) order.
template <typename In, typename Out>
void hq_parallel_stage(const stage_body<In, Out>* body, hq_knobs k,
                       popdep<In> in, pushdep<Out> out) {
  // One child per batch (per record on the element path): its frame must
  // hold the whole closure inline, or every child pays a heap allocation.
  static_assert(spawn_fits_inline<decltype(&hq_batch_task<In, Out>),
                                  const stage_body<In, Out>*, hq_knobs,
                                  std::vector<In>, pushdep<Out>>,
                "batch-child closure must fit task_fn's inline buffer");
  for (;;) {
    std::vector<In> work;
    if (k.bulk) {
      auto rs = in.get_read_slice(k.in_batch);
      if (rs.empty()) break;  // definitive end of stream
      work.reserve(rs.size());
      for (auto& v : rs) work.push_back(std::move(v));
      rs.release();
    } else {
      if (in.empty()) break;
      work.push_back(in.pop());
    }
    spawn(hq_batch_task<In, Out>, body, k, std::move(work), out);
  }
  sync();
}

/// serial_in_order middle stage: one task draining the input inline. Pop
/// order is serial-elision order, so it needs nothing extra.
template <typename In, typename Out>
void hq_serial_stage(const stage_body<In, Out>* body, hq_knobs k,
                     popdep<In> in, pushdep<Out> out) {
  hq_emitter<Out> em(out, k.out_batch, k.bulk);
  if (k.bulk) {
    for (;;) {
      auto rs = in.get_read_slice(k.in_batch);
      if (rs.empty()) break;
      for (auto& v : rs) (*body)(std::move(v), em.handle());
      rs.release();
    }
  } else {
    while (!in.empty()) {
      In v = in.pop();
      (*body)(std::move(v), em.handle());
    }
  }
}

template <typename In>
void hq_sink_task(const sink_body<In>* body, hq_knobs k, popdep<In> in) {
  if (k.bulk) {
    for (;;) {
      auto rs = in.get_read_slice(k.in_batch);
      if (rs.empty()) break;
      for (auto& v : rs) (*body)(std::move(v));
      rs.release();
    }
  } else {
    while (!in.empty()) {
      In v = in.pop();
      (*body)(std::move(v));
    }
  }
}

/// One declared stage, with its typed behavior captured behind erased
/// runners so the backends stay non-template code.
struct stage_rec {
  std::string name;
  stage_kind kind = stage_kind::parallel;
  bool is_source = false;
  bool is_sink = false;
  bool multi_out = false;  ///< expand stage: 0..N emissions per input
  std::type_index in_type = typeid(void);
  std::type_index out_type = typeid(void);
  std::string in_type_name;
  std::string out_type_name;
  int in_edge = -1;
  int out_edge = -1;
  /// Value-mode runner (serial elision): `token` points at an In the body
  /// may move from (null for sources); emissions pass pointers into callee
  /// stack space, so the whole chain runs without heap traffic.
  std::function<void(void* token, const erased_emit& next)> run_value;
  /// Heap-mode runner (pthreads/TBB backends): `token` is an owned heap In*
  /// (consumed); emissions are owned heap Out*.
  std::function<void(void* token, const erased_emit& next)> run_heap;
  /// Hyperqueue lowering: spawn this stage's task over the typed channels.
  /// The task borrows the body captured in this closure, so the graph must
  /// outlive the run (pipe::execute guarantees it).
  std::function<void(const hq_stage_ctx&)> hq_spawn;
  /// Factory for this stage's *output* channel (typed on Out).
  std::function<std::unique_ptr<hq_chan_base>(
      std::size_t seglen, int node, std::uint64_t budget_bytes)>
      make_out_chan;
  /// Destroy an owned heap token of this stage's input / output type. The
  /// pthreads and TBB backends use these to drain in-flight tokens leak-free
  /// when a failure tears the pipeline down mid-stream (null at chain ends).
  void (*destroy_in)(void*) = nullptr;
  void (*destroy_out)(void*) = nullptr;
};

struct edge_rec {
  std::size_t from = 0;
  std::size_t to = 0;
  edge_opts opts;
  std::type_index type = typeid(void);
};

}  // namespace detail

using stage_id = std::size_t;

/// The declared stage graph (currently a linear chain with typed edges;
/// expand stages carry fan-out *within* the chain, the shape all three
/// PARSEC pipelines and the planned FEC family need).
class graph {
 public:
  /// Reorder paths track at most this many nested expand levels.
  static constexpr unsigned kMaxDepth = 4;

  /// Declare the (single) source. Runs as one in-order activation; `body`
  /// receives the emission handle: void(emit<Out>).
  template <typename Out, typename F>
  stage_id source(std::string name, F&& body) {
    // Every stage body runs behind a named fault site ("stage.<name>") on
    // every backend — the injection choke point the declarative front-end
    // buys us. Cost when no plan is installed: one relaxed load per
    // activation. The source and sink wrappers are also the admission
    // boundary of every backend: each source emission passes the run's
    // gate, and a shed token is dropped here, before any backend's emit
    // sees it (pthreads sequence numbers stay dense, no queue is touched).
    // Without a gate the body gets the backend's emit handle unchanged.
    detail::source_body<Out> fn =
        [site = "stage." + name, gate = gate_.get(),
         inner = detail::source_body<Out>(std::forward<F>(body))](
            emit<Out> out) {
          gate->guard([&] {
            hq::fault::crashpoint(site);
            detail::admission_ctl* ctl = gate->ctl;
            if (ctl == nullptr) return inner(out);
            struct gated {
              detail::admission_ctl* ctl;
              emit<Out> next;
            } g{ctl, out};
            inner(emit<Out>(&g, [](void* c, Out&& v) {
              auto* gd = static_cast<gated*>(c);
              if (gd->ctl->admit()) gd->next(std::move(v));
            }));
          });
        };
    detail::stage_rec s;
    s.name = std::move(name);
    s.kind = stage_kind::serial_in_order;
    s.is_source = true;
    fill_out_type<Out>(&s);
    s.run_value = [fn](void*, const detail::erased_emit& next) {
      fn(detail::value_emit<Out>(next));
    };
    s.run_heap = [fn](void*, const detail::erased_emit& next) {
      fn(detail::heap_emit<Out>(next));
    };
    s.hq_spawn = [fn](const detail::hq_stage_ctx& c) {
      auto& q = static_cast<detail::hq_chan<Out>*>(c.out)->q;
      hq::spawn_stage(detail::hq_source_task<Out>, &fn, c.knobs,
                      (pushdep<Out>)q);
    };
    stages_.push_back(std::move(s));
    return stages_.size() - 1;
  }

  /// Declare a 1:1 transform stage; `body` is void(In&&, emit<Out>) and
  /// must emit exactly once per input.
  template <typename In, typename Out, typename F>
  stage_id stage(std::string name, stage_kind kind, F&& body) {
    return add_middle<In, Out>(std::move(name), kind,
                               std::forward<F>(body), /*multi_out=*/false);
  }

  /// Declare a 1:N expansion stage (dedup's coarse->refine split); `body`
  /// may emit any number of tokens per input, including zero.
  template <typename In, typename Out, typename F>
  stage_id expand(std::string name, stage_kind kind, F&& body) {
    return add_middle<In, Out>(std::move(name), kind,
                               std::forward<F>(body), /*multi_out=*/true);
  }

  /// Declare the (single) sink; `body` is void(In&&). A serial_in_order sink
  /// observes tokens in serial-elision order on every backend. Parallel
  /// sinks are rejected at compile().
  template <typename In, typename F>
  stage_id sink(std::string name, stage_kind kind, F&& body) {
    // Each delivery that returns retires one token from the run's
    // admission window.
    detail::sink_body<In> fn =
        [site = "stage." + name, gate = gate_.get(),
         inner = detail::sink_body<In>(std::forward<F>(body))](In&& v) {
          gate->guard([&] {
            hq::fault::crashpoint(site);
            inner(std::move(v));
          });
          if (detail::admission_ctl* ctl = gate->ctl) ctl->complete();
        };
    detail::stage_rec s;
    s.name = std::move(name);
    s.kind = kind;
    s.is_sink = true;
    fill_in_type<In>(&s);
    s.run_value = [fn](void* t, const detail::erased_emit&) {
      fn(std::move(*static_cast<In*>(t)));
    };
    s.run_heap = [fn](void* t, const detail::erased_emit&) {
      std::unique_ptr<In> own(static_cast<In*>(t));
      fn(std::move(*own));
    };
    s.hq_spawn = [fn](const detail::hq_stage_ctx& c) {
      auto& q = static_cast<detail::hq_chan<In>*>(c.in)->q;
      hq::spawn_stage(detail::hq_sink_task<In>, &fn, c.knobs, (popdep<In>)q);
    };
    stages_.push_back(std::move(s));
    return stages_.size() - 1;
  }

  /// Connect `from`'s output to `to`'s input. Throws graph_error when the
  /// token types disagree or either port is already connected.
  void connect(stage_id from, stage_id to, edge_opts opts = {});

  // ---- introspection (tests, runner) ----
  [[nodiscard]] std::size_t num_stages() const noexcept { return stages_.size(); }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }
  [[nodiscard]] const detail::stage_rec& stage_at(std::size_t i) const {
    return stages_.at(i);
  }
  [[nodiscard]] const detail::edge_rec& edge_at(std::size_t i) const {
    return edges_.at(i);
  }

  /// The validated execution plan: stages in chain order plus the reorder
  /// depth of every edge's tokens (how many (seq, subseq, ...) levels a
  /// baseline reorder buffer must track).
  struct plan {
    std::vector<std::size_t> order;    ///< stage indices, source..sink
    std::vector<std::size_t> edges;    ///< edge indices; edges[i]: order[i]->order[i+1]
    std::vector<unsigned> edge_depth;  ///< reorder-path depth on edges[i]
  };

  /// Validate the declared graph and derive the chain. Throws graph_error
  /// on misuse (no/duplicate source or sink, unattached stage, parallel
  /// sink, fan-out nesting beyond kMaxDepth).
  [[nodiscard]] plan compile() const;

  /// Install (or clear, with null) the admission gate the stage wrappers
  /// consult. pipe::execute owns the gate and scopes it to one run.
  void set_admission(detail::admission_ctl* ctl) noexcept { gate_->ctl = ctl; }

 private:
  template <typename In, typename Out, typename F>
  stage_id add_middle(std::string name, stage_kind kind, F&& body,
                      bool multi_out) {
    detail::stage_body<In, Out> fn =
        [site = "stage." + name, gate = gate_.get(),
         inner = detail::stage_body<In, Out>(std::forward<F>(body))](
            In&& v, emit<Out> out) {
          gate->guard([&] {
            hq::fault::crashpoint(site);
            inner(std::move(v), out);
          });
        };
    detail::stage_rec s;
    s.name = std::move(name);
    s.kind = kind;
    s.multi_out = multi_out;
    fill_in_type<In>(&s);
    fill_out_type<Out>(&s);
    s.run_value = [fn](void* t, const detail::erased_emit& next) {
      fn(std::move(*static_cast<In*>(t)), detail::value_emit<Out>(next));
    };
    s.run_heap = [fn](void* t, const detail::erased_emit& next) {
      std::unique_ptr<In> own(static_cast<In*>(t));
      fn(std::move(*own), detail::heap_emit<Out>(next));
    };
    s.hq_spawn = [fn, kind](const detail::hq_stage_ctx& c) {
      auto& inq = static_cast<detail::hq_chan<In>*>(c.in)->q;
      auto& outq = static_cast<detail::hq_chan<Out>*>(c.out)->q;
      if (kind == stage_kind::parallel) {
        hq::spawn_stage(detail::hq_parallel_stage<In, Out>, &fn, c.knobs,
                        (popdep<In>)inq, (pushdep<Out>)outq);
      } else {
        hq::spawn_stage(detail::hq_serial_stage<In, Out>, &fn, c.knobs,
                        (popdep<In>)inq, (pushdep<Out>)outq);
      }
    };
    stages_.push_back(std::move(s));
    return stages_.size() - 1;
  }

  template <typename In>
  void fill_in_type(detail::stage_rec* s) {
    s->in_type = typeid(In);
    s->in_type_name = typeid(In).name();
    s->destroy_in = [](void* p) { delete static_cast<In*>(p); };
  }

  template <typename Out>
  void fill_out_type(detail::stage_rec* s) {
    s->out_type = typeid(Out);
    s->out_type_name = typeid(Out).name();
    s->destroy_out = [](void* p) { delete static_cast<Out*>(p); };
    s->make_out_chan =
        [](std::size_t seglen, int node,
           std::uint64_t budget_bytes) -> std::unique_ptr<detail::hq_chan_base> {
      return std::make_unique<detail::hq_chan<Out>>(seglen, node, budget_bytes);
    };
  }

  std::vector<detail::stage_rec> stages_;
  std::vector<detail::edge_rec> edges_;
  std::unique_ptr<detail::gate_slot> gate_ =
      std::make_unique<detail::gate_slot>();
};

}  // namespace hq::pipe
