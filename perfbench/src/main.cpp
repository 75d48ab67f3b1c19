// perfbench — end-to-end and per-layer benchmark of the hyperqueue runtime.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//
// --trace 0 times the app's own graphs with tracing off and reports the
// end-to-end metrics; --trace 1 runs the traced re-description and reports
// the per-layer metrics. --tiny shrinks the inputs (self-test). The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Runs are refused while a runtime knob (any HQ_* variable) is set, since
// those change what is measured.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "host.hpp"
#include "measure.hpp"

extern char** environ;

namespace {

using perfbench::outcome;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny]\nworkloads:",
               why);
  for (const auto& n : perfbench::workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

/// Name of the first HQ_* variable in the environment, or empty.
std::string runtime_knob_set() {
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "HQ_", 3) == 0) return std::string(*e, std::strcspn(*e, "="));
  return {};
}

void print_json(const outcome& o) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              o.correct ? "true" : "false", static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                o.metrics[i].name.c_str(), o.metrics[i].value, o.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_args a;
  int trace = -1;
  bool have_seed = false;
  auto scale = perfbench::scale::full;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      scale = perfbench::scale::tiny;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0)) return usage("bad --seconds");
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") == 0) trace = 0;
      else if (std::strcmp(v, "1") == 0) trace = 1;
      else return usage("--trace takes 0 or 1");
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (trace < 0) return usage("--trace is required");
  if (const std::string knob = runtime_knob_set(); !knob.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time with %s set\n", knob.c_str());
    return 2;
  }
  const auto wl = perfbench::make_workload(a.workload, a.seed, scale);
  if (!wl) return usage(("unknown workload '" + a.workload + "'").c_str());

  a.workers = perfbench::host::usable_cpus();
  std::printf("env: workload=%s seed=%llu input_mib=%.2f nproc=%u W=%u build=%s "
              "hq_asserts=%s trace=%d seconds=%g\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<double>(wl->input_bytes()) / (1024.0 * 1024.0),
              perfbench::host::usable_cpus(), a.workers, PERFBENCH_BUILD_TYPE,
              PERFBENCH_HQ_ASSERTS ? "on" : "off", trace, a.seconds);

  const auto ticks0 = perfbench::host::read_cpu_ticks();
  outcome o;
  try {
    o = trace == 1 ? perfbench::run_traced(*wl, a) : perfbench::run_timed(*wl, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("host steal share over the run: %.1f%%\n",
              100.0 * perfbench::host::steal_share(ticks0, perfbench::host::read_cpu_ticks()));
  for (const auto& m : o.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
  }
  print_json(o);
  return 0;
}
