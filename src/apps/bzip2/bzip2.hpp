// bzip2-like block compression utility over the mbzip kernel (paper
// Section 6.3): a 3-stage pipeline — serial read, parallel per-block
// compression, serial in-order write.
//
// Variants: serial, pthreads, tbb, task dataflow ("objects", the structure
// of prior work [7] the paper compares against), hyperqueue, and the
// hyperqueue version with the loop-split idiom of Section 5.4 that bounds
// queue growth under serial execution.
#pragma once

#include <cstdint>
#include <vector>

namespace hq::pipe {
class graph;
enum class backend;
}

namespace hq::apps::bzip2 {

/// Blocks moved per queue slice (Section 5.2), on both pipeline edges and
/// in the loop-split variant.
inline constexpr std::size_t kSliceBatch = 16;

struct config {
  std::size_t input_bytes = 4u << 20;
  std::size_t block_bytes = 128u << 10;
  unsigned threads = 1;
  std::uint64_t seed = 99;
  std::size_t split_batch = 8;   // blocks per batch in the loop-split variant
  std::size_t split_window = 4;  // batches in flight before a selective sync
};

struct result {
  std::vector<std::uint8_t> output;  // mbzip stream (decompressible)
  double seconds = 0;
  std::size_t blocks = 0;
  std::size_t peak_segments = 0;  // hyperqueue variants: memory footprint probe
  // Segment-pool counters summed over the pipeline's queues (hyperqueue
  // variants): fresh allocations, pool reuses, peak segments in use. The
  // loop-split tests and bench compare these against the unsplit run.
  std::size_t seg_allocated = 0;
  std::size_t seg_recycled = 0;
  std::size_t seg_high_water = 0;
};

result run_serial(const config& cfg, const std::vector<std::uint8_t>& input);
/// Declarative 3-stage description (pipeline/builder.hpp): serial read ->
/// parallel compress -> in-order write. `cfg`, `input` and `r` must
/// outlive the built graph.
void describe_pipeline(const config& cfg, const std::vector<std::uint8_t>& input,
                       result* r, pipe::graph& g);
/// Execute describe_pipeline's graph on backend `b` (pipeline/runner.hpp)
/// with `cfg.threads` workers.
result run(const config& cfg, const std::vector<std::uint8_t>& input,
           pipe::backend b);
/// Figure baselines kept hand-rolled: task dataflow ("objects") and the
/// Section 5.4 loop split, whose owner-push + selective-sync shape is not a
/// linear stage chain.
result run_objects(const config& cfg, const std::vector<std::uint8_t>& input);
result run_hyperqueue_split(const config& cfg,
                            const std::vector<std::uint8_t>& input);

/// Serial per-stage seconds {read, compress, write}.
std::vector<double> stage_times(const config& cfg,
                                const std::vector<std::uint8_t>& input);

}  // namespace hq::apps::bzip2
