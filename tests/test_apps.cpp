// Integration tests: every implementation of every evaluation application
// must produce output identical to its serial version (ferret: checksum;
// dedup / bzip2: byte-identical streams) and the compressed outputs must
// reassemble to the original input.
#include <gtest/gtest.h>

#include "apps/bzip2/bzip2.hpp"
#include "apps/dedup/dedup.hpp"
#include "apps/ferret/ferret.hpp"
#include "pipeline/runner.hpp"
#include "util/datagen.hpp"
#include "util/mbzip.hpp"

namespace {

class AppParam : public ::testing::TestWithParam<unsigned> {};

// ------------------------------------------------------------------ ferret

hq::apps::ferret::config small_ferret(unsigned threads) {
  hq::apps::ferret::config cfg;
  cfg.num_images = 48;
  cfg.image_wh = 16;
  cfg.db_entries = 256;
  cfg.dims = 32;
  cfg.topk = 8;
  cfg.threads = threads;
  return cfg;
}

TEST(FerretApp, SerialIsDeterministic) {
  auto cfg = small_ferret(1);
  auto r1 = hq::apps::ferret::run_serial(cfg);
  auto r2 = hq::apps::ferret::run_serial(cfg);
  EXPECT_EQ(r1.checksum, r2.checksum);
  EXPECT_NE(r1.checksum, 0u);
}

TEST_P(AppParam, FerretPthreadsMatchesSerial) {
  auto cfg = small_ferret(GetParam());
  EXPECT_EQ(hq::apps::ferret::run(cfg, hq::pipe::backend::pthreads).checksum,
            hq::apps::ferret::run_serial(cfg).checksum);
}

TEST_P(AppParam, FerretTbbMatchesSerial) {
  auto cfg = small_ferret(GetParam());
  EXPECT_EQ(hq::apps::ferret::run(cfg, hq::pipe::backend::tbb).checksum,
            hq::apps::ferret::run_serial(cfg).checksum);
}

TEST_P(AppParam, FerretObjectsMatchesSerial) {
  auto cfg = small_ferret(GetParam());
  EXPECT_EQ(hq::apps::ferret::run_objects(cfg).checksum,
            hq::apps::ferret::run_serial(cfg).checksum);
}

TEST_P(AppParam, FerretHyperqueueMatchesSerial) {
  auto cfg = small_ferret(GetParam());
  EXPECT_EQ(hq::apps::ferret::run(cfg, hq::pipe::backend::hyperqueue).checksum,
            hq::apps::ferret::run_serial(cfg).checksum);
}

TEST(FerretApp, StageTimesCoverSixStages) {
  auto cfg = small_ferret(1);
  auto t = hq::apps::ferret::stage_times(cfg);
  ASSERT_EQ(t.size(), 6u);
  for (double s : t) EXPECT_GE(s, 0.0);
  // Ranking must dominate (Table 1 shape).
  EXPECT_GT(t[4], t[2]) << "rank must cost more than extract";
}

// ------------------------------------------------------------------- dedup

hq::apps::dedup::config small_dedup(unsigned threads) {
  hq::apps::dedup::config cfg;
  cfg.input_bytes = 1u << 20;
  cfg.coarse_bytes = 64u << 10;
  cfg.fine_avg_log2 = 11;
  cfg.fine_min = 256;
  cfg.fine_max = 8u << 10;
  cfg.threads = threads;
  return cfg;
}

TEST(DedupApp, SerialRoundtrip) {
  auto cfg = small_dedup(1);
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  auto r = hq::apps::dedup::run_serial(cfg, input);
  EXPECT_GT(r.total_chunks, 10u);
  EXPECT_LT(r.unique_chunks, r.total_chunks) << "duplicates must exist";
  EXPECT_LT(r.output.size(), input.size()) << "dedup+compress must shrink";
  auto back = hq::apps::dedup::reassemble(r.output.data(), r.output.size());
  EXPECT_EQ(back, input);
}

TEST_P(AppParam, DedupPthreadsMatchesSerial) {
  auto cfg = small_dedup(GetParam());
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  auto serial = hq::apps::dedup::run_serial(cfg, input);
  auto par = hq::apps::dedup::run(cfg, input, hq::pipe::backend::pthreads);
  EXPECT_EQ(par.output, serial.output);
  EXPECT_EQ(par.total_chunks, serial.total_chunks);
}

TEST_P(AppParam, DedupTbbMatchesSerial) {
  auto cfg = small_dedup(GetParam());
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  EXPECT_EQ(hq::apps::dedup::run(cfg, input, hq::pipe::backend::tbb).output,
            hq::apps::dedup::run_serial(cfg, input).output);
}

TEST_P(AppParam, DedupObjectsMatchesSerial) {
  auto cfg = small_dedup(GetParam());
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  EXPECT_EQ(hq::apps::dedup::run_objects(cfg, input).output,
            hq::apps::dedup::run_serial(cfg, input).output);
}

TEST_P(AppParam, DedupHyperqueueMatchesSerial) {
  auto cfg = small_dedup(GetParam());
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  auto serial = hq::apps::dedup::run_serial(cfg, input);
  auto par = hq::apps::dedup::run(cfg, input, hq::pipe::backend::hyperqueue);
  EXPECT_EQ(par.output, serial.output);
  auto back = hq::apps::dedup::reassemble(par.output.data(), par.output.size());
  EXPECT_EQ(back, input);
}

TEST(DedupApp, CharacterizationCountsAreConsistent) {
  auto cfg = small_dedup(1);
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  auto ch = hq::apps::dedup::stage_times(cfg, input);
  EXPECT_EQ(ch.iterations[0], ch.iterations[1]) << "fragment/refine both per-coarse";
  EXPECT_GT(ch.iterations[2], ch.iterations[0]) << "refine amplifies";
  EXPECT_LT(ch.iterations[3], ch.iterations[2]) << "compression skips duplicates";
  EXPECT_EQ(ch.iterations[4], ch.iterations[2]) << "output sees all chunks";
}

TEST(DedupApp, HigherDupFractionShrinksOutput) {
  auto cfg = small_dedup(1);
  auto low = hq::util::gen_archive(cfg.input_bytes, 0.1, cfg.seed);
  auto high = hq::util::gen_archive(cfg.input_bytes, 0.7, cfg.seed);
  auto r_low = hq::apps::dedup::run_serial(cfg, low);
  auto r_high = hq::apps::dedup::run_serial(cfg, high);
  EXPECT_LT(r_high.output.size(), r_low.output.size());
}

// ------------------------------------------------------------------- bzip2

hq::apps::bzip2::config small_bzip(unsigned threads) {
  hq::apps::bzip2::config cfg;
  cfg.input_bytes = 512u << 10;
  cfg.block_bytes = 32u << 10;
  cfg.threads = threads;
  return cfg;
}

TEST(BzipApp, SerialRoundtrip) {
  auto cfg = small_bzip(1);
  auto input = hq::util::gen_text(cfg.input_bytes, cfg.seed);
  auto r = hq::apps::bzip2::run_serial(cfg, input);
  EXPECT_LT(r.output.size(), input.size());
  auto back = hq::util::mbzip_decompress(r.output.data(), r.output.size());
  EXPECT_EQ(back, input);
}

TEST_P(AppParam, BzipAllVariantsMatchSerial) {
  auto cfg = small_bzip(GetParam());
  auto input = hq::util::gen_text(cfg.input_bytes, cfg.seed);
  auto serial = hq::apps::bzip2::run_serial(cfg, input);
  for (hq::pipe::backend b : hq::pipe::parallel_backends())
    EXPECT_EQ(hq::apps::bzip2::run(cfg, input, b).output, serial.output)
        << hq::pipe::to_string(b);
  EXPECT_EQ(hq::apps::bzip2::run_objects(cfg, input).output, serial.output);
  EXPECT_EQ(hq::apps::bzip2::run_hyperqueue_split(cfg, input).output,
            serial.output);
}

TEST(BzipApp, LoopSplitBoundsQueueGrowth) {
  // Section 5.4: under serial execution (1 worker) the unsplit version
  // buffers every block, so its peak segment demand grows with the input;
  // the split version bounds the batches in flight (split_batch x
  // split_window) and its demand stays constant. Use many small blocks so
  // the difference is visible in whole segments.
  auto cfg = small_bzip(1);
  cfg.block_bytes = 4u << 10;  // 128 blocks
  cfg.split_batch = 4;
  cfg.split_window = 2;
  auto input = hq::util::gen_text(cfg.input_bytes, cfg.seed);
  auto unsplit =
      hq::apps::bzip2::run(cfg, input, hq::pipe::backend::hyperqueue);
  auto split = hq::apps::bzip2::run_hyperqueue_split(cfg, input);
  EXPECT_EQ(unsplit.output, split.output);
  EXPECT_LE(split.seg_high_water, unsplit.seg_high_water)
      << "loop split must not increase peak queue footprint";
  // The paper's point: the split footprint is a function of the knobs, not
  // of the input length — doubling the input must not move the high-water
  // mark, while the unsplit version keeps buffering more.
  auto cfg2 = cfg;
  cfg2.input_bytes *= 2;
  auto input2 = hq::util::gen_text(cfg2.input_bytes, cfg2.seed);
  auto split2 = hq::apps::bzip2::run_hyperqueue_split(cfg2, input2);
  EXPECT_LE(split2.seg_high_water, split.seg_high_water)
      << "split footprint must be independent of the input length";
}

INSTANTIATE_TEST_SUITE_P(Workers, AppParam, ::testing::Values(1u, 2u, 4u),
                         [](const auto& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
