// Tests for the per-worker frame/attachment recycling pools
// (sched/obj_pool.hpp): steady-state pipelines must stop allocating task
// frames and qattaches after warm-up, recycling must survive cross-worker
// frees (frames are freed by whichever worker runs finish()), a full return
// stack must hand blocks to the freeing worker, and the hq::call fast path
// must not depend on heap-allocated completion state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <vector>

#include "hq.hpp"

namespace {

/// One steady-state round set: repeated bounded spawn bursts with a sync in
/// between, the regime the pool is sized for (in-flight frames << cap).
void spawn_rounds(hq::scheduler& sched, int rounds, int width) {
  sched.run([&] {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < width; ++i) hq::spawn([] {});
      hq::sync();
    }
  });
}

TEST(FramePool, SingleWorkerPlateausExactly) {
  // One worker makes recycling deterministic: after the warm-up rounds
  // every frame demand is served by the magazine — zero fresh allocations.
  // Both snapshots are taken inside one run() so no frame free is in
  // flight at observation time.
  hq::scheduler sched(1);
  hq::detail::obj_pool::stats_t warm, after;
  sched.run([&] {
    for (int r = 0; r < 20; ++r) {
      for (int i = 0; i < 64; ++i) hq::spawn([] {});
      hq::sync();
    }
    warm = sched.frame_pool_stats();
    for (int r = 0; r < 20; ++r) {
      for (int i = 0; i < 64; ++i) hq::spawn([] {});
      hq::sync();
    }
    after = sched.frame_pool_stats();
  });
  EXPECT_GT(warm.allocated, 0u);
  EXPECT_EQ(after.allocated, warm.allocated);
  EXPECT_GT(after.recycled, warm.recycled);
  EXPECT_EQ(after.high_water, warm.high_water);
}

TEST(FramePool, MultiWorkerSteadyState) {
  // With stealing, frames are freed on other workers and flow back through
  // the bounded return stacks. Timing jitter may let a later run transiently
  // exceed the warm-up peak, but the allocation count must plateau rather
  // than grow with work done: allow one burst of slack while recycling must
  // scale with the number of spawns.
  hq::scheduler sched(4);
  for (int i = 0; i < 4; ++i) spawn_rounds(sched, 30, 64);  // warm-up
  const auto warm = sched.frame_pool_stats();
  for (int i = 0; i < 10; ++i) spawn_rounds(sched, 30, 64);
  const auto after = sched.frame_pool_stats();
  // Fresh allocations may still trickle in while magazines rebalance across
  // workers (one burst per worker of slack), but must stay far below the
  // 10 × 30 × 64 = 19200 spawns executed — the pool, not malloc, carries
  // the volume.
  EXPECT_LE(after.allocated, warm.allocated + 4u * 64u);
  EXPECT_GE(after.recycled + after.allocated - warm.allocated,
            warm.recycled + 10u * 30u * 64u);
}

TEST(FramePool, QattachRecyclesInPipelines) {
  // Every hyperqueue spawn argument allocates one qattach, freed at task
  // completion by the completing worker. A repeated producer/consumer
  // pipeline must reach attach-pool steady state the same way frames do.
  hq::scheduler sched(1);
  auto pipeline = [] {
    hq::hyperqueue<int> q(64);
    for (int stage = 0; stage < 8; ++stage) {
      hq::spawn(
          [](hq::pushdep<int> qq) {
            for (int i = 0; i < 32; ++i) qq.push(i);
          },
          (hq::pushdep<int>)q);
    }
    long sum = 0;
    hq::spawn(
        [&sum](hq::popdep<int> qq) {
          while (!qq.empty()) sum += qq.pop();
        },
        (hq::popdep<int>)q);
    hq::sync();
    EXPECT_EQ(sum, 8L * 32 * 31 / 2);
  };
  hq::detail::obj_pool::stats_t warm, after;
  sched.run([&] {
    for (int i = 0; i < 3; ++i) pipeline();
    warm = sched.attach_pool_stats();
    for (int i = 0; i < 5; ++i) pipeline();
    after = sched.attach_pool_stats();
  });
  EXPECT_GT(warm.allocated, 0u);
  EXPECT_EQ(after.allocated, warm.allocated);
  EXPECT_GT(after.recycled, warm.recycled);
}

TEST(FramePool, CrossWorkerRecyclingTorture) {
  // Producer/consumer pipeline at 4 workers: frames and qattaches are
  // allocated on the spawning worker and freed wherever finish() runs.
  // Exercises the magazine return stacks under contention (sanitizer
  // coverage for the recycling hand-off) and checks the books balance.
  hq::scheduler sched(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    sched.run([&] {
      hq::hyperqueue<int> q(128);
      hq::spawn(
          [](hq::pushdep<int> qq) {
            for (int i = 0; i < 2000; ++i) qq.push(i);
          },
          (hq::pushdep<int>)q);
      hq::spawn(
          [&sum](hq::popdep<int> qq) {
            long s = 0;
            while (!qq.empty()) s += qq.pop();
            sum.fetch_add(s);
          },
          (hq::popdep<int>)q);
      hq::sync();
    });
    ASSERT_EQ(sum.load(), 2000L * 1999 / 2);
  }
  const auto fp = sched.frame_pool_stats();
  EXPECT_GT(fp.recycled, 0u);
  EXPECT_LE(fp.live, fp.allocated);
  EXPECT_GE(fp.high_water, 1u);
}

TEST(FramePool, StatsAccountingConsistent) {
  hq::scheduler sched(2);
  spawn_rounds(sched, 10, 32);
  const auto fp = sched.frame_pool_stats();
  const auto ap = sched.attach_pool_stats();
  // Frames: allocations ever = fresh + recycled; everything spawned in a
  // completed run() has been freed except nothing (all tasks completed), so
  // at most the root-frame teardown is in flight.
  EXPECT_LE(fp.live, 1u);
  EXPECT_LE(fp.high_water, fp.allocated);
  EXPECT_LE(ap.live, 1u);
}

TEST(FramePool, CallUsesCallerStackFlag) {
  // hq::call waits on a stack-local completion flag (no shared_ptr per
  // call). Nested and repeated calls must complete and order correctly.
  hq::scheduler sched(2);
  sched.run([&] {
    long acc = 0;
    for (int i = 0; i < 100; ++i) {
      hq::call([&acc, i] { acc += i; });
    }
    EXPECT_EQ(acc, 99L * 100 / 2);
    int stage = 0;
    hq::call([&] {
      EXPECT_EQ(stage, 0);
      hq::call([&] { stage = 1; });
      EXPECT_EQ(stage, 1);
      stage = 2;
    });
    EXPECT_EQ(stage, 2);
  });
}

TEST(FramePool, SingleNodePlacementHasNoRemoteAllocs) {
  // Under compact placement on a single-node topology every worker's home
  // node is 0, every slab is carved node-0, and the cross-worker overflow
  // migration path — the only producer of remote blocks — cannot cross
  // nodes. The locality counters must therefore attribute every magazine-
  // served allocation as node-local; this also pins the accounting
  // identity node_local + remote == magazine-served allocations.
  const hq::topology topo = hq::topology::synthetic("1x4");
  hq::scheduler sched(4, {hq::placement_policy::compact, &topo});
  for (int i = 0; i < 5; ++i) spawn_rounds(sched, 20, 64);
  for (const auto& pool :
       {sched.frame_pool_stats(), sched.attach_pool_stats()}) {
    EXPECT_EQ(pool.remote_allocs, 0u);
    EXPECT_LE(pool.node_local_allocs + pool.remote_allocs,
              pool.allocated + pool.recycled);
  }
  const auto fp = sched.frame_pool_stats();
  EXPECT_GT(fp.node_local_allocs, 0u);
  for (const auto& w : sched.per_worker_stats()) EXPECT_EQ(w.node, 0);
}

TEST(FramePool, TwoNodeTopologyCountsLocality) {
  // Synthetic 2-node model, workers split across the two logical nodes.
  // Locality is attributed from the logical node ids, so the counters are
  // meaningful even when the real machine can't honor the pins: every
  // alloc must be attributed, and remote allocs may only come from the
  // bounded-return migration path (a small fraction of the volume, but
  // timing-dependent — only the accounting identity is asserted).
  const hq::topology topo = hq::topology::synthetic("2x2");
  hq::scheduler sched(4, {hq::placement_policy::compact, &topo});
  for (int i = 0; i < 5; ++i) spawn_rounds(sched, 20, 64);
  const auto fp = sched.frame_pool_stats();
  EXPECT_GT(fp.node_local_allocs, 0u);
  EXPECT_LE(fp.node_local_allocs + fp.remote_allocs,
            fp.allocated + fp.recycled);
}

TEST(FramePool, ReturnCapOverflowMigratesToFreeingWorker) {
  // One thread drives the pool directly, so every hand-off is exact: of the
  // blocks magazine 0 allocated and worker 1 frees, the first kCap park on
  // magazine 0's return stack and the rest migrate to magazine 1's own
  // freelist instead of piling up at the owner.
  constexpr std::size_t kCap = 4;
  constexpr std::size_t kBlocks = 10;
  hq::detail::obj_pool pool;
  pool.init(2, 64, kCap);
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < kBlocks; ++i) blocks.push_back(pool.alloc(0));
  for (void* b : blocks) pool.free(b, /*owner=*/0, /*freeing=*/1);
  const std::set<void*> parked(blocks.begin(), blocks.begin() + kCap);
  const std::set<void*> migrated(blocks.begin() + kCap, blocks.end());

  // Worker 1 reuses exactly the migrated blocks; only then does it carve.
  std::vector<void*> w1;
  for (std::size_t i = 0; i < kBlocks - kCap; ++i) w1.push_back(pool.alloc(1));
  EXPECT_EQ(std::set<void*>(w1.begin(), w1.end()), migrated);
  auto s = pool.stats();
  EXPECT_EQ(s.allocated, kBlocks);
  EXPECT_EQ(s.recycled, kBlocks - kCap);
  w1.push_back(pool.alloc(1));
  EXPECT_EQ(pool.stats().allocated, kBlocks + 1);

  // The owner adopts its parked returns: exactly the first kCap blocks.
  std::vector<void*> w0;
  for (std::size_t i = 0; i < kCap; ++i) w0.push_back(pool.alloc(0));
  EXPECT_EQ(std::set<void*>(w0.begin(), w0.end()), parked);
  s = pool.stats();
  EXPECT_EQ(s.allocated, kBlocks + 1);
  EXPECT_EQ(s.recycled, kBlocks);

  for (void* b : w0) pool.free(b, 0, 0);
  for (void* b : w1) pool.free(b, 1, 1);
  EXPECT_EQ(pool.stats().live, 0u);
}

}  // namespace
