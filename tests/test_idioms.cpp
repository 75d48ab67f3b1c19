// Tests for the programming idioms of paper Section 5: segment-length
// tuning (5.1), queue slices (5.2), loop split & interchange (5.4), and
// selective sync (5.5).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "hq.hpp"

namespace {

class IdiomParam : public ::testing::TestWithParam<unsigned> {};

// ------------------------------------------------- 5.1 segment length tuning

TEST_P(IdiomParam, SegmentLengthIsRespected) {
  hq::scheduler sched(GetParam());
  sched.run([&] {
    // Leaf tasks produce exactly 64 values; with segment length 64 the
    // producer side allocates one segment per leaf and never chains.
    hq::hyperqueue<int> queue(64);
    for (int leaf = 0; leaf < 8; ++leaf) {
      hq::spawn(
          [leaf](hq::pushdep<int> q) {
            for (int i = 0; i < 64; ++i) q.push(leaf * 64 + i);
          },
          (hq::pushdep<int>)queue);
    }
    hq::spawn(
        [](hq::popdep<int> q) {
          int expect = 0;
          while (!q.empty()) ASSERT_EQ(q.pop(), expect++);
        },
        (hq::popdep<int>)queue);
    hq::sync();
  });
}

TEST(Idioms, TinySegmentsStillCorrect) {
  // Degenerate segment length (2) maximizes chaining; order must hold.
  hq::scheduler sched(4);
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> queue(2);
    for (int b = 0; b < 10; ++b) {
      hq::spawn(
          [b](hq::pushdep<int> q) {
            for (int i = 0; i < 17; ++i) q.push(b * 17 + i);
          },
          (hq::pushdep<int>)queue);
    }
    hq::spawn(
        [&got](hq::popdep<int> q) {
          while (!q.empty()) got.push_back(q.pop());
        },
        (hq::popdep<int>)queue);
    hq::sync();
  });
  ASSERT_EQ(got.size(), 170u);
  for (int i = 0; i < 170; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

// ----------------------------------------------------------- 5.2 queue slices

TEST_P(IdiomParam, WriteSliceRoundtrip) {
  hq::scheduler sched(GetParam());
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> queue(128);
    hq::spawn(
        [](hq::pushdep<int> q) {
          // Slices may be granted short (e.g. at a ring wrap point), so the
          // producer loop is grant-driven: ask for up to 25 and advance by
          // whatever came back.
          int v = 0;
          while (v < 500) {
            auto ws = q.get_write_slice(std::min<std::size_t>(
                25, static_cast<std::size_t>(500 - v)));
            ASSERT_GE(ws.size(), 1u);
            for (std::size_t i = 0; i < ws.size(); ++i) ws.emplace(i, v++);
            ws.commit();
          }
        },
        (hq::pushdep<int>)queue);
    hq::spawn(
        [&got](hq::popdep<int> q) {
          while (!q.empty()) got.push_back(q.pop());
        },
        (hq::popdep<int>)queue);
    hq::sync();
  });
  ASSERT_EQ(got.size(), 500u);
  for (int i = 0; i < 500; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST_P(IdiomParam, ReadSliceRoundtrip) {
  hq::scheduler sched(GetParam());
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> queue(64);
    hq::spawn(
        [](hq::pushdep<int> q) {
          for (int i = 0; i < 300; ++i) q.push(i);
        },
        (hq::pushdep<int>)queue);
    hq::spawn(
        [&got](hq::popdep<int> q) {
          for (;;) {
            auto rs = q.get_read_slice(40);
            if (rs.empty()) break;  // definitive end
            for (const int& v : rs) got.push_back(v);
            rs.release();
          }
        },
        (hq::popdep<int>)queue);
    hq::sync();
  });
  ASSERT_EQ(got.size(), 300u);
  for (int i = 0; i < 300; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(Idioms, SliceGrantsAreBoundedBySegment) {
  hq::scheduler sched(1);
  sched.run([&] {
    hq::hyperqueue<int> queue(16);
    hq::spawn(
        [](hq::pushdep<int> q) {
          auto ws = q.get_write_slice(100);  // > segment length
          EXPECT_LE(ws.size(), 16u) << "slice must fit one segment";
          for (std::size_t i = 0; i < ws.size(); ++i) {
            ws.emplace(i, static_cast<int>(i));
          }
          ws.commit();
        },
        (hq::pushdep<int>)queue);
    hq::sync();
    while (!queue.empty()) queue.pop();
  });
}

// ----------------------------------------- 5.4 queue loop split & interchange

bool split_producer(hq::pushdep<int> q, int base, int block) {
  for (int i = 0; i < block; ++i) q.push(base + i);
  return base + block < 200;  // more work to do?
}

TEST_P(IdiomParam, LoopSplitFigure5) {
  // Figure 5: the main iteration loop is moved outside the tasks; memory
  // growth is bounded by one block per iteration under serial execution.
  hq::scheduler sched(GetParam());
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
  sched.run([&] {
    hq::hyperqueue<int> queue(16);
    int base = 0;
    // NOTE: the owner produces (it has push privileges) and spawns one
    // consumer per block, exactly as in the paper's Figure 5.
    while (split_producer((hq::pushdep<int>)queue, base, 10)) {
      base += 10;
      hq::spawn(
          [&](hq::popdep<int> q) {
            while (!q.empty()) {
              sum.fetch_add(q.pop());
              count.fetch_add(1);
            }
          },
          (hq::popdep<int>)queue);
    }
    hq::sync();
    // Drain the final block (the last spawned consumer may have finished
    // before the last producer call in serial order — values pushed after
    // a consumer's spawn are invisible to it).
    while (!queue.empty()) {
      sum.fetch_add(queue.pop());
      count.fetch_add(1);
    }
  });
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(sum.load(), 200L * 199 / 2);
}

// --------------------------------------------------------- 5.5 selective sync

TEST_P(IdiomParam, SelectiveSyncFigure6) {
  // Figure 6: producer / consumer / producer; the owner then pops. sync_pop
  // suspends until the consumer is done, so the owner's empty()/pop() do not
  // block the worker.
  hq::scheduler sched(GetParam());
  sched.run([&] {
    hq::hyperqueue<int> queue;
    hq::spawn(
        [](hq::pushdep<int> q) {
          for (int i = 0; i < 10; ++i) q.push(i);
        },
        (hq::pushdep<int>)queue);
    hq::spawn(
        [](hq::popdep<int> q) {
          for (int i = 0; i < 5; ++i) {
            ASSERT_FALSE(q.empty());
            ASSERT_EQ(q.pop(), i);
          }
        },
        (hq::popdep<int>)queue);
    hq::spawn(
        [](hq::pushdep<int> q) {
          for (int i = 100; i < 103; ++i) q.push(i);
        },
        (hq::pushdep<int>)queue);
    queue.sync_pop();  // paper: "sync (popdep<int>)queue;"
    // The consumer left 5..9, then the second producer's 100..102 follow.
    const int expect[] = {5, 6, 7, 8, 9, 100, 101, 102};
    for (int e : expect) {
      ASSERT_FALSE(queue.empty());
      ASSERT_EQ(queue.pop(), e);
    }
    EXPECT_TRUE(queue.empty());
    hq::sync();
  });
}

TEST_P(IdiomParam, SyncQueueWaitsForAllModes) {
  hq::scheduler sched(GetParam());
  std::atomic<int> done{0};
  sched.run([&] {
    hq::hyperqueue<int> queue;
    hq::spawn(
        [&done](hq::pushdep<int> q) {
          for (int i = 0; i < 100; ++i) q.push(i);
          done.fetch_add(1);
        },
        (hq::pushdep<int>)queue);
    hq::spawn(
        [&done](hq::popdep<int> q) {
          while (!q.empty()) q.pop();
          done.fetch_add(1);
        },
        (hq::popdep<int>)queue);
    queue.sync_queue();  // Swan's "sync queue;"
    EXPECT_EQ(done.load(), 2);
    hq::sync();
  });
}

INSTANTIATE_TEST_SUITE_P(Workers, IdiomParam, ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
