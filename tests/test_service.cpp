// SLO service simulation (sim/service.hpp): workload generation is a pure
// function of the seed, the virtual-time queueing model reproduces
// byte-identical percentile curves at any worker count and on any backend,
// the model's dispatch agrees with the sim::engine DES it folds in, and the
// shed policy delivers the headline property — bounded in-system population
// AND bounded admitted-request tail under 2x overload — while the real
// transport underneath respects its per-queue memory budget.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/latency.hpp"
#include "sim/des.hpp"
#include "sim/service.hpp"

namespace {

using hq::pipe::admission_policy;
using hq::sim::generate_requests;
using hq::sim::request;
using hq::sim::run_service;
using hq::sim::service_model;
using hq::sim::service_result;
using hq::sim::service_spec;

service_spec quick_spec() {
  service_spec s;
  s.requests = 3000;
  s.servers = 4;
  s.service_mean = 1.0e-3;
  s.service_sigma = 0.5;
  s.offered_load = 1.5;
  s.seed = 99;
  s.window = 64;
  s.workers = 1;
  return s;
}

TEST(Service, WorkloadIsSeedPure) {
  service_spec s = quick_spec();
  auto a = generate_requests(s);
  auto b = generate_requests(s);
  ASSERT_EQ(a.size(), s.requests);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].service, b[i].service);
  }
  s.seed = 100;
  auto c = generate_requests(s);
  EXPECT_NE(a[0].service, c[0].service);
  // Arrivals are monotone, services positive, sample mean within 20% of
  // the configured mean.
  double sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(a[i].arrival, a[i - 1].arrival);
    }
    EXPECT_GT(a[i].service, 0.0);
    sum += a[i].service;
  }
  const double mean = sum / static_cast<double>(a.size());
  EXPECT_NEAR(mean, s.service_mean, 0.2 * s.service_mean);
}

TEST(Service, CurvesIdenticalAcrossWorkersAndBackends) {
  service_spec s = quick_spec();
  s.policy = admission_policy::shed;
  service_result ref = run_service(s);
  ASSERT_EQ(ref.exec.outcome, hq::pipe::run_outcome::ok);
  ASSERT_GT(ref.admitted, 0u);

  for (unsigned workers : {2u, 4u}) {
    service_spec v = s;
    v.workers = workers;
    service_result r = run_service(v);
    EXPECT_TRUE(r.latency == ref.latency) << "workers=" << workers;
    EXPECT_EQ(r.admitted, ref.admitted) << "workers=" << workers;
    EXPECT_EQ(r.shed, ref.shed) << "workers=" << workers;
    EXPECT_EQ(r.checksum, ref.checksum) << "workers=" << workers;
    EXPECT_EQ(r.makespan, ref.makespan) << "workers=" << workers;
  }
  for (hq::pipe::backend b :
       {hq::pipe::backend::serial, hq::pipe::backend::hyperqueue_element,
        hq::pipe::backend::pthreads, hq::pipe::backend::tbb}) {
    service_spec v = s;
    v.transport = b;
    v.workers = 2;
    service_result r = run_service(v);
    EXPECT_TRUE(r.latency == ref.latency) << hq::pipe::to_string(b);
    EXPECT_EQ(r.checksum, ref.checksum) << hq::pipe::to_string(b);
  }
}

TEST(Service, ModelAgreesWithDesEngine) {
  // Replay the admitted trace through the sim::engine DES (FIFO dispatch,
  // `servers` cores): sojourn histograms must match the min-heap model's
  // bucket for bucket.
  for (admission_policy policy :
       {admission_policy::none, admission_policy::shed}) {
    service_spec s = quick_spec();
    s.policy = policy;
    auto reqs = generate_requests(s);
    service_model model(s);
    std::vector<request> admitted;
    for (const request& r : reqs)
      if (model.offer(r)) admitted.push_back(r);

    hq::sim::engine eng({.cores = s.servers});
    hq::stats::latency_histogram replay;
    for (const request& r : admitted) {
      eng.submit_after(r.arrival, [&eng, &replay, r] {
        eng.submit(r.service, [&eng, &replay, r] {
          const double sojourn = eng.now() - r.arrival;
          replay.record(sojourn <= 0
                            ? 0
                            : static_cast<std::uint64_t>(sojourn * 1e9));
        });
      });
    }
    const double makespan = eng.run();
    EXPECT_TRUE(replay == model.latency())
        << "policy=" << static_cast<int>(policy);
    EXPECT_NEAR(makespan, model.makespan(), 1e-9);
  }
}

TEST(Service, ShedBoundsTailAndMemoryUnderOverload) {
  service_spec s = quick_spec();
  s.offered_load = 2.0;

  service_spec none = s;
  none.policy = admission_policy::none;
  service_result r_none = run_service(none);

  service_spec shed = s;
  shed.policy = admission_policy::shed;
  service_result r_shed = run_service(shed);

  EXPECT_EQ(r_shed.admitted + r_shed.shed, s.requests);
  EXPECT_GT(r_shed.shed, 0u);
  EXPECT_LE(r_shed.peak_in_system, s.window);
  EXPECT_GT(r_none.peak_in_system, s.window);  // unbounded growth at 2x
  EXPECT_LT(r_shed.latency.p99(), r_none.latency.p99());
  // Absolute SLO bound: at most `window` predecessors over `servers`
  // servers, factor 4 for the lognormal service tail.
  const double bound_ns = 4.0 *
                          (static_cast<double>(s.window) / s.servers + 1.0) *
                          s.service_mean * 1e9;
  EXPECT_LT(static_cast<double>(r_shed.latency.p99()), bound_ns);
}

TEST(Service, BudgetedTransportSameCurvesBoundedBytes) {
  service_spec s = quick_spec();
  s.policy = admission_policy::shed;
  service_result free_run = run_service(s);

  service_spec b = s;
  b.memory_budget = 16 * 1024;
  b.workers = 2;
  service_result budgeted = run_service(b);

  // The budget changes scheduling pressure, never results.
  EXPECT_TRUE(budgeted.latency == free_run.latency);
  EXPECT_EQ(budgeted.checksum, free_run.checksum);
  EXPECT_EQ(budgeted.exec.pool.budget_bytes, 2 * b.memory_budget);  // 2 edges
  if (budgeted.exec.pool.budget_overruns == 0) {
    // Per-queue cap plus the exact structural slack: kShardMinSegs exempt
    // segments per live producer shard at the observed shard high-water
    // mark. Schedule-independent — under sanitizers far more shards sit
    // open concurrently, and the bound tracks that.
    EXPECT_LE(budgeted.exec.pool.peak_bytes,
              budgeted.exec.pool.budget_bytes +
                  budgeted.exec.pool.exempt_peak_bytes);
  }
}

}  // namespace
