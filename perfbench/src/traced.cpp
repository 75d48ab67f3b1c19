// The traced run: per-layer metrics.
//
// Each round runs the traced re-description of the pipeline (every stage
// body inside a span) on the serial elision, hq at 1 worker, hq at W and the
// element path at W, then the app's own graph untraced on hq at W (tracing
// overhead, queue counters) and on the tbb and pthreads baselines (headroom
// context only). Every rep is checked against the app's serial output, for
// item conservation along the chain, and for summed busy time <= W x wall.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using trace::ns_t;

constexpr int kMinRounds = 2;

struct stage_info {
  std::string name;
  hq::pipe::stage_kind kind;
  bool source;
  bool sink;
  bool expand;
};

struct stage_count {
  std::uint64_t in = 0;   ///< activations (spans)
  std::uint64_t out = 0;  ///< emissions
  ns_t busy = 0;          ///< summed self time
  std::size_t threads = 0;
  /// Items the stage handled: emissions for a source, activations otherwise.
  [[nodiscard]] std::uint64_t items(const stage_info& s) const { return s.source ? out : in; }
};

/// What one traced rep's spans add up to.
struct rep_trace {
  double wall = 0;  ///< seconds of the pipe::execute call
  unsigned workers = 1;
  std::vector<stage_count> st;
  ns_t busy = 0;
  ns_t first = std::numeric_limits<ns_t>::max();
  ns_t last = std::numeric_limits<ns_t>::min();
  /// Per consuming stage: microseconds from the producer's emit to the
  /// consumer's span start.
  std::vector<std::vector<float>> wait_us;

  [[nodiscard]] double gap_s() const { return workers * wall - busy * 1e-9; }
};

rep_trace collect(std::size_t nstages, double wall, unsigned workers) {
  rep_trace r;
  r.wall = wall;
  r.workers = workers;
  r.st.resize(nstages);
  r.wait_us.resize(nstages);
  for (const trace::thread_log* log : trace::logs()) {
    std::vector<bool> ran(nstages, false);
    for (const trace::span& s : log->spans) {
      if (s.stage >= nstages) throw std::logic_error("span of an unknown stage");
      stage_count& c = r.st[s.stage];
      ++c.in;
      c.busy += s.self;
      r.busy += s.self;
      ran[s.stage] = true;
      r.first = std::min(r.first, s.start);
      r.last = std::max(r.last, s.end);
      if (s.emit >= 0) r.wait_us[s.stage].push_back(static_cast<float>(s.start - s.emit) * 1e-3f);
    }
    for (std::size_t i = 0; i < nstages; ++i) {
      r.st[i].out += log->emitted[i];
      if (ran[i]) ++r.st[i].threads;
    }
  }
  return r;
}

/// Empty when the rep conserves items along the chain, matches the serial
/// rep's counts, and keeps summed busy time within W x wall.
std::string check_trace(const rep_trace& r, const std::vector<stage_info>& stages,
                        const rep_trace* serial) {
  const std::size_t n = stages.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (r.st[i].out != r.st[i + 1].in)
      return "items out of " + stages[i].name + " (" + std::to_string(r.st[i].out) +
             ") != items into " + stages[i + 1].name + " (" +
             std::to_string(r.st[i + 1].in) + ")";
  }
  for (std::size_t i = 0; i < n; ++i) {
    const stage_info& s = stages[i];
    if (!s.source && !s.sink && !s.expand && r.st[i].in != r.st[i].out)
      return "stage " + s.name + " emitted " + std::to_string(r.st[i].out) + " for " +
             std::to_string(r.st[i].in) + " items";
    if (serial != nullptr &&
        (r.st[i].in != serial->st[i].in || r.st[i].out != serial->st[i].out))
      return "stage " + s.name + " counts differ from the serial elision's";
  }
  const double cap = r.workers * r.wall;
  if (r.busy * 1e-9 > cap)
    return "summed busy " + std::to_string(r.busy * 1e-9) + " s > W x wall " +
           std::to_string(cap) + " s";
  return {};
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Nearest-rank percentile of pooled samples.
double percentile(std::vector<float> xs, double p) {
  if (xs.empty()) return 0.0;
  const std::size_t k = std::min(
      xs.size() - 1, static_cast<std::size_t>(p / 100.0 * static_cast<double>(xs.size())));
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k), xs.end());
  return xs[k];
}

template <typename T, typename F>
std::vector<double> each(const std::vector<T>& reps, F f) {
  std::vector<double> out;
  for (const T& r : reps) out.push_back(f(r));
  return out;
}

std::size_t find_stage(const std::vector<stage_info>& stages, const char* name) {
  for (std::size_t i = 0; i < stages.size(); ++i)
    if (stages[i].name == name) return i;
  throw std::logic_error(std::string("traced graph has no stage ") + name);
}

}  // namespace

outcome run_traced(const workload& wl, const run_args& a) {
  using hq::pipe::backend;
  const double mib = static_cast<double>(wl.input_bytes()) / (1024.0 * 1024.0);
  const unsigned w = a.workers;
  output_gate gate(a.workload);
  bool correct = true;

  // The app's graph: reference output, and the kinds and edge options the
  // traced re-description copies.
  auto app = wl.describe();
  const exec_rep ref = execute_timed(*app, {"serial", backend::serial, 1});
  if (!ref.error.empty()) throw std::runtime_error("serial elision failed: " + ref.error);
  gate.set_reference(app->output());
  correct &= gate.check("reference", 0, wl.check_reference(gate.reference()));

  std::vector<stage_info> stages;
  {
    auto probe = wl.describe_traced(app->g);
    const auto plan = probe->g.compile();
    for (std::size_t i = 0; i < plan.order.size(); ++i) {
      // Spans carry the declaration index as the stage id.
      if (plan.order[i] != i) throw std::logic_error("traced stages out of chain order");
      const auto& s = probe->g.stage_at(i);
      stages.push_back({s.name, s.kind, s.is_source, s.is_sink, s.multi_out});
    }
    if (stages.size() > trace::kMaxStages) throw std::logic_error("too many stages");
  }
  const stage_roles roles = wl.roles();
  const std::size_t i_src = find_stage(stages, roles.source);
  const std::size_t i_work = find_stage(stages, roles.work);
  const std::size_t i_sink = find_stage(stages, roles.sink);

  enum { kSerial, kHqW1, kHqW, kElementW, kTraced };
  const config traced[kTraced] = {{"traced_serial", backend::serial, 1},
                                  {"traced_hq_w1", backend::hyperqueue, 1},
                                  {"traced_hq_wN", backend::hyperqueue, w},
                                  {"traced_element_wN", backend::hyperqueue_element, w}};
  enum { kUHqW, kTbb, kPthreads, kUntraced };
  const config untraced[kUntraced] = {{"hq_wN", backend::hyperqueue, w},
                                      {"tbb_wN", backend::tbb, w},
                                      {"pthreads_wN", backend::pthreads, w}};

  std::vector<rep_trace> tr[kTraced];
  std::vector<exec_rep> un[kUntraced];
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < kMinRounds || since(start) < a.seconds; ++round) {
    for (int i = 0; i < kTraced; ++i) {
      auto in = wl.describe_traced(app->g);
      trace::begin_run();
      const exec_rep r = execute_timed(*in, traced[i]);
      if (!gate.check(traced[i].label, round, r, *in)) continue;
      rep_trace t = collect(stages.size(), r.seconds, traced[i].workers);
      const rep_trace* serial = tr[kSerial].empty() ? nullptr : &tr[kSerial].front();
      if (gate.check(traced[i].label, round, check_trace(t, stages, serial)))
        tr[i].push_back(std::move(t));
    }
    for (int i = 0; i < kUntraced; ++i) {
      auto in = wl.describe();
      exec_rep r = execute_timed(*in, untraced[i]);
      if (gate.check(untraced[i].label, round, r, *in)) un[i].push_back(std::move(r));
    }
  }
  for (const auto& v : tr) correct &= !v.empty();
  for (const auto& v : un) correct &= !v.empty();
  if (!correct) {
    outcome out;
    out.correct = false;
    out.attempted = gate.attempted();
    out.failed = gate.failed();
    return out;
  }

  const std::vector<rep_trace>& ser = tr[kSerial];
  const std::vector<rep_trace>& hqw = tr[kHqW];
  std::printf("per stage, traced hq at W=%u (medians over %zu reps; serial busy over %zu):\n",
              w, hqw.size(), ser.size());
  std::printf("  %-16s %-15s %9s %9s %10s %10s %7s\n", "stage", "kind", "in", "out", "busy_s",
              "serial_s", "threads");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    std::printf("  %-16s %-15s %9llu %9llu %10.4f %10.4f %7.1f\n", stages[i].name.c_str(),
                hq::pipe::to_string(stages[i].kind),
                static_cast<unsigned long long>(hqw.front().st[i].in),
                static_cast<unsigned long long>(hqw.front().st[i].out),
                median_of(each(hqw, [i](const rep_trace& r) { return r.st[i].busy * 1e-9; })),
                median_of(each(ser, [i](const rep_trace& r) { return r.st[i].busy * 1e-9; })),
                median_of(each(hqw, [i](const rep_trace& r) {
                  return static_cast<double>(r.st[i].threads);
                })));
  }

  outcome out;
  auto add = [&out](const std::string& name, double v, const char* unit) {
    out.metrics.push_back({name, v, unit});
  };
  const struct {
    const char* role;
    std::size_t i;
  } role_stages[] = {{"source", i_src}, {"work", i_work}, {"sink", i_sink}};
  for (const auto& rs : role_stages) {
    const std::size_t i = rs.i;
    const stage_info& s = stages[i];
    const std::string p = std::string("apps.") + rs.role;
    const double items = static_cast<double>(ser.front().st[i].items(s));
    const double serial_per_item = median_of(
        each(ser, [&](const rep_trace& r) { return r.st[i].busy / items; }));
    add(p + ".items", items, "count");
    add(p + ".busy_s", median_of(each(hqw, [i](const rep_trace& r) { return r.st[i].busy * 1e-9; })),
        "s");
    add(p + ".busy_inflation",
        median_of(each(hqw, [&](const rep_trace& r) { return r.st[i].busy / items; })) /
            serial_per_item,
        "x");
  }

  const double work_items = static_cast<double>(ser.front().st[i_work].in);
  add("sched.busy_share",
      median_of(each(hqw, [](const rep_trace& r) { return r.busy * 1e-9 / (r.workers * r.wall); })),
      "ratio");
  add("sched.work.threads",
      median_of(each(hqw, [i_work](const rep_trace& r) {
        return static_cast<double>(r.st[i_work].threads);
      })),
      "count");
  std::size_t serialized = 0;
  for (const rep_trace& r : hqw) {
    for (std::size_t i = 0; i < stages.size(); ++i) {
      if (w > 1 && stages[i].kind == hq::pipe::stage_kind::parallel && r.st[i].in > 1 &&
          r.st[i].threads == 1) {
        ++serialized;
        break;
      }
    }
  }
  add("sched.serialized_reps", static_cast<double>(serialized), "count");
  add("sched.gap_s", median_of(each(hqw, [](const rep_trace& r) { return r.gap_s(); })), "s");
  add("sched.w1_gap_us_per_item",
      median_of(each(tr[kHqW1], [&](const rep_trace& r) { return r.gap_s() / work_items * 1e6; })),
      "us");
  add("sched.launch_ms",
      median_of(each(hqw, [](const rep_trace& r) {
        return (r.wall - static_cast<double>(r.last - r.first) * 1e-9) * 1e3;
      })),
      "ms");

  std::vector<float> feed_wait, sink_wait;
  for (const rep_trace& r : hqw) {
    feed_wait.insert(feed_wait.end(), r.wait_us[i_work].begin(), r.wait_us[i_work].end());
    sink_wait.insert(sink_wait.end(), r.wait_us[i_sink].begin(), r.wait_us[i_sink].end());
  }
  add("core.feed-work.wait_p50_us", percentile(feed_wait, 50), "us");
  add("core.feed-work.wait_p99_us", percentile(feed_wait, 99), "us");
  add("core.work-sink.wait_p50_us", percentile(sink_wait, 50), "us");
  add("core.work-sink.wait_p99_us", percentile(sink_wait, 99), "us");
  add("core.element_gap_us_per_item",
      median_of(
          each(tr[kElementW], [&](const rep_trace& r) { return r.gap_s() / work_items * 1e6; })),
      "us");
  const auto& uhq = un[kUHqW];
  add("core.peak_queue_kib",
      median_of(each(uhq, [](const exec_rep& r) { return r.result.pool.peak_bytes / 1024.0; })),
      "KiB");
  add("core.segments_allocated",
      median_of(each(uhq, [](const exec_rep& r) {
        return static_cast<double>(r.result.pool.allocated);
      })),
      "count");
  add("core.segments_recycled",
      median_of(each(uhq, [](const exec_rep& r) {
        return static_cast<double>(r.result.pool.recycled);
      })),
      "count");

  auto rate = [mib](const std::vector<exec_rep>& reps) {
    return median_of(each(reps, [mib](const exec_rep& r) { return mib / r.seconds; }));
  };
  const double tbb = rate(un[kTbb]);
  add("pipeline.tbb_mib_s", tbb, "MiB/s");
  add("pipeline.pthreads_mib_s", rate(un[kPthreads]), "MiB/s");
  add("pipeline.hq_vs_tbb", rate(uhq) / tbb, "x");
  const double traced_s = median_of(each(hqw, [](const rep_trace& r) { return r.wall; }));
  const double untraced_s = median_of(each(uhq, [](const exec_rep& r) { return r.seconds; }));
  add("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%");

  out.correct = correct && gate.failed() == 0;
  out.attempted = gate.attempted();
  out.failed = gate.failed();
  return out;
}

}  // namespace perfbench
