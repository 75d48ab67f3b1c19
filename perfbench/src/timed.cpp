// The timed run: end-to-end metrics with tracing off.
//
// First forked children take the peak RSS of hq-at-W runs (measure_rss).
// Set-up (graph description, program-side state and one untimed warm-up run
// per configuration) is repeated kSetups times and reported as its median.
// Then repetition rounds run until the run's time is up, each round running
// the serial elision, hq at 1 worker, hq at W and the element path at W,
// in alternating order so slow drift hits every configuration alike.
// Speed-ups pair reps of the same round.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "host.hpp"
#include "measure.hpp"
#include "util/sha1.hpp"

namespace perfbench {

namespace {

constexpr int kSetups = 3;
constexpr int kMinRounds = 3;
constexpr int kRssReps = 9;

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Prints one metric: median, quartiles, IQR share of the median, samples.
void print_summary(const char* name, const std::vector<double>& xs, const char* unit) {
  const quartiles q = quartiles_of(xs);
  const double iqr_pct = q.median != 0 ? 100.0 * (q.q3 - q.q1) / q.median : 0.0;
  std::printf("  %-18s %12.4f %-6s IQR [%.4f, %.4f] (%.1f%% of median)  n=%zu\n", name,
              q.median, unit, q.q1, q.q3, iqr_pct, xs.size());
}

/// One hq-at-W rep of a peak-RSS child.
struct rss_rep {
  double peak_mib;
  bool completed;
  hq::util::sha1_digest output;
};
static_assert(std::is_trivially_copyable_v<rss_rep>);

/// Peak RSS of hq-at-W runs, each taken in a fresh forked copy of the
/// process before any other configuration has run. glibc keeps per-thread
/// heap arenas that earlier runs leave fragmented: in the benchmark's own
/// process the serial, 1-worker and element runs moved VmHWM by tens of MiB
/// from seed to seed, and even repeated hq runs in one child crept upwards.
/// The child hands freed heap back to the kernel and resets VmHWM first; the
/// parent checks each rep's output digest.
std::vector<rss_rep> measure_rss(const workload& wl, const config& c) {
  if (!host::reset_peak_rss())
    std::printf("note: /proc/self/clear_refs refused; peak RSS includes input synthesis\n");
  std::vector<rss_rep> reps;
  for (int i = 0; i < kRssReps; ++i) {
    const bytes raw = host::run_forked([&](int fd) {
      auto in = wl.describe();
      host::reset_peak_rss();
      const exec_rep r = execute_timed(*in, c);
      const double peak = host::peak_rss_mib();
      const bytes out = in->output();
      const rss_rep rep{peak, r.error.empty(), hq::util::sha1(out.data(), out.size())};
      host::write_all(fd, &rep, sizeof rep);
    });
    if (raw.size() != sizeof(rss_rep)) throw std::runtime_error("peak-RSS child sent no sample");
    rss_rep rep;
    std::memcpy(&rep, raw.data(), sizeof rep);
    reps.push_back(rep);
  }
  return reps;
}

}  // namespace

outcome run_timed(const workload& wl, const run_args& a) {
  using hq::pipe::backend;
  enum { kSerial, kHqW1, kHqW, kElementW, kConfigs };
  const config cfgs[kConfigs] = {{"serial", backend::serial, 1},
                                 {"hq_w1", backend::hyperqueue, 1},
                                 {"hq_wN", backend::hyperqueue, a.workers},
                                 {"element_wN", backend::hyperqueue_element, a.workers}};
  const double mib = static_cast<double>(wl.input_bytes()) / (1024.0 * 1024.0);
  output_gate gate(a.workload);
  bool correct = true;

  const std::vector<rss_rep> rss_reps = measure_rss(wl, cfgs[kHqW]);

  std::vector<double> setup;
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = std::chrono::steady_clock::now();
    double excluded = 0;  // the runtime-independent reference check
    for (int i = 0; i < kConfigs; ++i) {
      auto in = wl.describe();
      const exec_rep r = execute_timed(*in, cfgs[i]);
      if (s == 0 && i == kSerial) {
        if (!r.error.empty())
          throw std::runtime_error("serial elision failed: " + r.error);
        gate.set_reference(in->output());
        const auto t1 = std::chrono::steady_clock::now();
        correct &= gate.check("reference", 0, wl.check_reference(gate.reference()));
        excluded = since(t1);
      }
      correct &= gate.check(cfgs[i].label, -1 - s, r, *in);
    }
    setup.push_back(since(t0) - excluded);
  }

  std::vector<double> rss;
  const hq::util::sha1_digest ref_digest =
      hq::util::sha1(gate.reference().data(), gate.reference().size());
  for (int i = 0; i < kRssReps; ++i) {
    std::string why;
    if (!rss_reps[i].completed) why = "run failed";
    else if (rss_reps[i].output != ref_digest) why = "output differs from the serial elision";
    if (gate.check("hq_wN_rss", i, why)) rss.push_back(rss_reps[i].peak_mib);
  }

  std::vector<double> secs[kConfigs];
  std::vector<double> speedup, w1_speedup;
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < kMinRounds || since(start) < a.seconds; ++round) {
    double t[kConfigs] = {};
    bool ok[kConfigs] = {};
    for (int k = 0; k < kConfigs; ++k) {
      const int i = round % 2 == 0 ? k : kConfigs - 1 - k;
      auto in = wl.describe();
      const exec_rep r = execute_timed(*in, cfgs[i]);
      ok[i] = gate.check(cfgs[i].label, round, r, *in);
      t[i] = r.seconds;
    }
    std::printf("round %d:", round);
    for (int i = 0; i < kConfigs; ++i) {
      std::printf(" %s=%.4fs%s", cfgs[i].label, t[i], ok[i] ? "" : "(failed)");
      if (ok[i]) secs[i].push_back(t[i]);
    }
    std::printf("\n");
    if (ok[kSerial] && ok[kHqW]) speedup.push_back(t[kSerial] / t[kHqW]);
    if (ok[kSerial] && ok[kHqW1]) w1_speedup.push_back(t[kSerial] / t[kHqW1]);
  }

  auto rate = [mib](const std::vector<double>& s) {
    std::vector<double> r;
    for (double x : s) r.push_back(mib / x);
    return r;
  };
  struct series {
    const char* name;
    std::vector<double> xs;
    const char* unit;
  };
  const series all[] = {
      {"hq_mib_s", rate(secs[kHqW]), "MiB/s"},
      {"hq_speedup", speedup, "x"},
      {"hq_w1_speedup", w1_speedup, "x"},
      {"hq_element_mib_s", rate(secs[kElementW]), "MiB/s"},
      {"serial_mib_s", rate(secs[kSerial]), "MiB/s"},
      {"peak_rss_mib", rss, "MiB"},
      {"setup_s", setup, "s"},
  };
  outcome out;
  std::printf("end-to-end (median, IQR, samples):\n");
  for (const auto& s : all) {
    print_summary(s.name, s.xs, s.unit);
    if (s.xs.empty()) correct = false;  // every rep of a configuration failed
    out.metrics.push_back({s.name, median_of(s.xs), s.unit});
  }
  out.correct = correct && gate.failed() == 0;
  out.attempted = gate.attempted();
  out.failed = gate.failed();
  return out;
}

}  // namespace perfbench
