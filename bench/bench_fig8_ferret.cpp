// Figure 8 reproduction: ferret speedup vs cores for Pthreads, TBB,
// Objects (task dataflow) and Hyperqueue.
//
// Stage costs are measured on this host (serial kernels, per-stage median
// of 5 passes); the speedup curves are produced by the virtual-time
// scheduling models because the figure spans more cores than a development
// host has (README "Substitutions"). The FPU-pairing penalty of the
// paper's Bulldozer testbed is modeled past 16 cores.
// Expected shape: pthreads ≈ TBB ≈ hyperqueue scaling to ~27x with a dip
// past 16 cores; objects plateaus near 13x (unoverlapped input stage).
//
// A real-execution validation block runs all four implementations at the
// host's core count and checks output equality.
#include <cstdlib>
#include <string>

#include "apps/ferret/ferret.hpp"
#include "calibrate.hpp"
#include "pipeline/runner.hpp"
#include "quick.hpp"
#include "sim/models.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const bool quick = hq::bench::quick_mode(argc, argv);
  hq::apps::ferret::config cfg;
  cfg.num_images = 300;
  if (const char* env = std::getenv("HQ_FERRET_IMAGES")) {
    cfg.num_images = static_cast<std::size_t>(std::atol(env));
  }
  if (quick) cfg.num_images = 60;

  // 1. Host-measured per-item stage costs.
  const auto t = hq::bench::median_stage_times(
      [&] { return hq::apps::ferret::stage_times(cfg); });
  const double n = static_cast<double>(cfg.num_images);
  hq::sim::flat_spec spec;
  spec.stages = {{true, t[0] / n},  {false, t[1] / n}, {false, t[2] / n},
                 {false, t[3] / n}, {false, t[4] / n}, {true, t[5] / n}};
  spec.items = quick ? 350 : 3500;  // paper 'native' iteration count
  spec.jitter = 0.15;
  spec.seed = cfg.seed;
  const double serial = hq::sim::serial_time_flat(spec);

  // 2. Host-calibrated runtime overheads.
  auto ov = hq::bench::calibrate_overheads();

  // 3. Sweep the paper's core counts.
  hq::util::table table(
      {"Cores", "Pthreads", "TBB", "Objects", "Hyperqueue"});
  for (unsigned p : {1u, 2u, 4u, 8u, 12u, 16u, 20u, 24u, 28u, 32u}) {
    auto m = hq::bench::paper_machine(p);
    const double sp_pth =
        serial / hq::sim::sim_flat_pthreads(spec, m, ov, /*threads=*/p);
    const double sp_tbb = serial / hq::sim::sim_flat_tbb(spec, m, ov, 4 * p);
    const double sp_obj =
        serial / hq::sim::sim_flat_objects(spec, m, ov, /*overlap=*/false);
    const double sp_hq = serial / hq::sim::sim_flat_hyperqueue(spec, m, ov);
    table.add_row({hq::util::table::cell(static_cast<std::uint64_t>(p)),
                   hq::util::table::cell(sp_pth, 2),
                   hq::util::table::cell(sp_tbb, 2),
                   hq::util::table::cell(sp_obj, 2),
                   hq::util::table::cell(sp_hq, 2)});
  }
  table.print("Figure 8: ferret speedup over serial (virtual-time models, "
              "host-measured stage costs)");

  // 4. Real-execution validation on this host.
  hq::apps::ferret::config small = cfg;
  small.num_images = quick ? 24 : 96;
  small.threads = std::max(1u, std::thread::hardware_concurrency());
  auto serial_r = hq::apps::ferret::run_serial(small);
  auto pth_r = hq::apps::ferret::run(small, hq::pipe::backend::pthreads);
  auto tbb_r = hq::apps::ferret::run(small, hq::pipe::backend::tbb);
  auto obj_r = hq::apps::ferret::run_objects(small);
  auto hqq_r = hq::apps::ferret::run(small, hq::pipe::backend::hyperqueue);
  const bool ok = pth_r.checksum == serial_r.checksum &&
                  tbb_r.checksum == serial_r.checksum &&
                  obj_r.checksum == serial_r.checksum &&
                  hqq_r.checksum == serial_r.checksum;
  hq::util::table val({"Variant", "Time (s)", "Checksum matches serial"});
  val.add_row({"serial", hq::util::table::cell(serial_r.seconds, 3), "-"});
  val.add_row({"pthreads", hq::util::table::cell(pth_r.seconds, 3),
               pth_r.checksum == serial_r.checksum ? "yes" : "NO"});
  val.add_row({"tbb", hq::util::table::cell(tbb_r.seconds, 3),
               tbb_r.checksum == serial_r.checksum ? "yes" : "NO"});
  val.add_row({"objects", hq::util::table::cell(obj_r.seconds, 3),
               obj_r.checksum == serial_r.checksum ? "yes" : "NO"});
  val.add_row({"hyperqueue", hq::util::table::cell(hqq_r.seconds, 3),
               hqq_r.checksum == serial_r.checksum ? "yes" : "NO"});
  val.print("Real execution at " + std::to_string(small.threads) +
            " worker(s) on this host (validation)");
  return ok ? 0 : 1;
}
