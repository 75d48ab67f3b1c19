// Section 6.3 reproduction: bzip2 pipeline, hyperqueue vs the baseline task
// dataflow ("objects") implementation, plus the Section 5.4 loop-split
// ablation (queue growth under serial execution).
//
// The paper's claim: the hyperqueue version performs equivalently to the
// task-dataflow version once the loop-split idiom bounds queue growth.
// The table reports real times at the host's worker count, but the
// interesting measured quantity is the queue footprint; scaling is
// compared in virtual time (README "Substitutions").
#include <cstdlib>
#include <string>
#include <thread>

#include "apps/bzip2/bzip2.hpp"
#include "calibrate.hpp"
#include "pipeline/runner.hpp"
#include "quick.hpp"
#include "sim/models.hpp"
#include "util/datagen.hpp"
#include "util/mbzip.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  hq::apps::bzip2::config cfg;
  cfg.input_bytes = 4u << 20;
  if (const char* env = std::getenv("HQ_BZIP_MB")) {
    cfg.input_bytes = static_cast<std::size_t>(std::atol(env)) << 20;
  }
  if (hq::bench::quick_mode(argc, argv)) cfg.input_bytes = 1u << 20;
  cfg.threads = std::max(1u, std::thread::hardware_concurrency());
  auto input = hq::util::gen_text(cfg.input_bytes, cfg.seed);

  auto serial_r = hq::apps::bzip2::run_serial(cfg, input);
  auto obj_r = hq::apps::bzip2::run_objects(cfg, input);
  auto hq_r = hq::apps::bzip2::run(cfg, input, hq::pipe::backend::hyperqueue);
  auto split_r = hq::apps::bzip2::run_hyperqueue_split(cfg, input);

  auto verify = [&](const hq::apps::bzip2::result& r) {
    if (r.output != serial_r.output) return "NO";
    auto back = hq::util::mbzip_decompress(r.output.data(), r.output.size());
    return back == input ? "yes" : "NO";
  };

  hq::util::table table({"Variant", "Time (s)", "Peak queue segments",
                         "Output ok"});
  table.add_row({"serial", hq::util::table::cell(serial_r.seconds, 3), "-",
                 verify(serial_r)});
  table.add_row({"objects", hq::util::table::cell(obj_r.seconds, 3), "-",
                 verify(obj_r)});
  table.add_row({"hyperqueue", hq::util::table::cell(hq_r.seconds, 3),
                 hq::util::table::cell(
                     static_cast<std::uint64_t>(hq_r.peak_segments)),
                 verify(hq_r)});
  table.add_row({"hyperqueue+split(5.4)",
                 hq::util::table::cell(split_r.seconds, 3),
                 hq::util::table::cell(
                     static_cast<std::uint64_t>(split_r.peak_segments)),
                 verify(split_r)});
  table.print("bzip2 (Section 6.3), " + std::to_string(cfg.input_bytes >> 20) +
              " MiB input, " + std::to_string(cfg.threads) + " worker(s)");

  // Virtual-time scaling: hyperqueue vs objects on the 3-stage pipeline
  // (both overlap the read stage; Section 6.3 reports equal performance).
  const auto t = hq::bench::median_stage_times(
      [&] { return hq::apps::bzip2::stage_times(cfg, input); });
  const double blocks =
      static_cast<double>((input.size() + cfg.block_bytes - 1) / cfg.block_bytes);
  hq::sim::flat_spec spec;
  spec.stages = {{true, t[0] / blocks}, {false, t[1] / blocks},
                 {true, t[2] / blocks}};
  spec.items = static_cast<std::size_t>(blocks) * 8;  // longer stream
  spec.seed = cfg.seed;
  auto ov = hq::bench::calibrate_overheads();
  const double serial_v = hq::sim::serial_time_flat(spec);
  hq::util::table sweep({"Cores", "Objects", "Hyperqueue"});
  for (unsigned p : {1u, 2u, 4u, 8u, 16u, 32u}) {
    auto m = hq::bench::paper_machine(p);
    sweep.add_row(
        {hq::util::table::cell(static_cast<std::uint64_t>(p)),
         hq::util::table::cell(
             serial_v / hq::sim::sim_flat_objects(spec, m, ov, true), 2),
         hq::util::table::cell(
             serial_v / hq::sim::sim_flat_hyperqueue(spec, m, ov), 2)});
  }
  sweep.print("bzip2 speedup, task dataflow vs hyperqueue (virtual time)");

  const bool ok = obj_r.output == serial_r.output &&
                  hq_r.output == serial_r.output &&
                  split_r.output == serial_r.output;
  return ok ? 0 : 1;
}
