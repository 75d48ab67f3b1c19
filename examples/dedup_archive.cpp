// Deduplicating compression of a synthetic archive using the hyperqueue
// dedup pipeline (the paper's Figure 10c structure), with verification by
// reassembly. Shows the public app API end to end.
//
//   $ ./examples/dedup_archive [workers] [megabytes]
#include <cstdio>
#include <cstdlib>

#include "apps/dedup/dedup.hpp"
#include "pipeline/runner.hpp"
#include "util/datagen.hpp"

int main(int argc, char** argv) {
  hq::apps::dedup::config cfg;
  cfg.threads = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
  cfg.input_bytes =
      (argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 4) << 20;

  auto input =
      hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  auto r = hq::apps::dedup::run(cfg, input, hq::pipe::backend::hyperqueue);

  std::printf("input      : %zu bytes\n", input.size());
  std::printf("output     : %zu bytes (%.1f%%)\n", r.output.size(),
              100.0 * static_cast<double>(r.output.size()) /
                  static_cast<double>(input.size()));
  std::printf("chunks     : %zu total, %zu unique (%.1f%% duplicates)\n",
              r.total_chunks, r.unique_chunks,
              100.0 * static_cast<double>(r.total_chunks - r.unique_chunks) /
                  static_cast<double>(r.total_chunks));
  std::printf("time       : %.3f s (%u workers)\n", r.seconds, cfg.threads);

  auto back = hq::apps::dedup::reassemble(r.output.data(), r.output.size());
  const bool ok = back == input;
  std::printf("verification: %s\n", ok ? "reassembled stream matches input"
                                       : "MISMATCH");
  return ok ? 0 : 1;
}
