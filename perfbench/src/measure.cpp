#include "measure.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>

namespace perfbench {

exec_rep execute_timed(instance& in, const config& c) {
  hq::pipe::exec_options opt;
  opt.workers = c.workers;
  exec_rep r;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    r.result = hq::pipe::execute(in.g, c.backend, opt);
  } catch (const std::exception& e) {
    r.error = e.what();
    if (r.error.empty()) r.error = "exception without message";
  }
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return r;
}

bool output_gate::check(const char* config, int rep, const exec_rep& r,
                        const instance& in) {
  if (!r.error.empty()) return check(config, rep, "run failed: " + r.error);
  if (in.output() != ref_) return check(config, rep, "output differs from the serial elision");
  return check(config, rep, std::string());
}

bool output_gate::check(const char* config, int rep, const std::string& why) {
  ++attempted_;
  if (why.empty()) return true;
  ++failed_;
  std::fprintf(stderr, "FAIL %s %s rep %d: %s\n", workload_.c_str(), config, rep,
               why.c_str());
  return false;
}

quartiles quartiles_of(std::vector<double> xs) {
  if (xs.empty()) return {};
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n == 1) return {xs[0], xs[0], xs[0]};
  // statistics.quantiles' default "exclusive" method.
  const std::size_t m = n + 1;
  double q[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    q[i - 1] = (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

}  // namespace perfbench
