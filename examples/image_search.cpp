// Content-based image similarity search: the ferret pipeline over a
// synthetic image corpus, comparing the hyperqueue version with the serial
// baseline. Demonstrates scale-freedom: the same program runs unchanged at
// any worker count.
//
//   $ ./examples/image_search [workers] [images]
#include <cstdio>
#include <cstdlib>

#include "apps/ferret/ferret.hpp"
#include "pipeline/runner.hpp"

int main(int argc, char** argv) {
  hq::apps::ferret::config cfg;
  cfg.threads = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
  cfg.num_images = argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 128;

  auto serial = hq::apps::ferret::run_serial(cfg);
  auto parallel = hq::apps::ferret::run(cfg, hq::pipe::backend::hyperqueue);

  std::printf("ranked %zu query images against %zu database entries\n",
              cfg.num_images, cfg.db_entries);
  std::printf("serial     : %.3f s, checksum %016llx\n", serial.seconds,
              static_cast<unsigned long long>(serial.checksum));
  std::printf("hyperqueue : %.3f s (%u workers), checksum %016llx\n",
              parallel.seconds, cfg.threads,
              static_cast<unsigned long long>(parallel.checksum));
  const bool ok = serial.checksum == parallel.checksum;
  std::printf("determinism: results %s\n",
              ok ? "identical to serial elision" : "DIFFER (bug!)");
  return ok ? 0 : 1;
}
