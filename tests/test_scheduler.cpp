// Tests for the work-stealing scheduler: spawn/sync semantics, nesting,
// helping, recursion, and stress.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "sched/spawn.hpp"

namespace {

long serial_fib(long n) { return n < 2 ? n : serial_fib(n - 1) + serial_fib(n - 2); }

void fib_task(long n, long* out) {
  if (n < 2) {
    *out = n;
    return;
  }
  long a = 0, b = 0;
  hq::spawn(fib_task, n - 1, &a);
  hq::spawn(fib_task, n - 2, &b);
  hq::sync();
  *out = a + b;
}

class SchedulerParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(SchedulerParam, FibMatchesSerial) {
  hq::scheduler sched(GetParam());
  long out = 0;
  sched.run([&] { fib_task(20, &out); });
  EXPECT_EQ(out, serial_fib(20));
}

TEST_P(SchedulerParam, ManyFlatChildren) {
  hq::scheduler sched(GetParam());
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  sched.run([&] {
    for (int i = 0; i < kN; ++i) {
      hq::spawn([&hits, i] { hits[static_cast<std::size_t>(i)].fetch_add(1); });
    }
    hq::sync();
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
    }
  });
}

TEST_P(SchedulerParam, ImplicitSyncAtTaskReturn) {
  // A task's children must complete before its completion is observable,
  // even without an explicit sync in the body.
  hq::scheduler sched(GetParam());
  std::atomic<int> order{0};
  std::atomic<int> child_done_at{-1};
  std::atomic<int> after_sync_at{-1};
  sched.run([&] {
    hq::spawn([&] {
      hq::spawn([&] { child_done_at.store(order.fetch_add(1)); });
      // no explicit sync: implicit sync must wait for the grandchild
    });
    hq::sync();
    after_sync_at.store(order.fetch_add(1));
  });
  EXPECT_LT(child_done_at.load(), after_sync_at.load());
  EXPECT_GE(child_done_at.load(), 0);
}

TEST_P(SchedulerParam, SyncSeesChildWrites) {
  hq::scheduler sched(GetParam());
  constexpr int kRounds = 200;
  sched.run([&] {
    for (int r = 0; r < kRounds; ++r) {
      std::vector<int> vals(64, 0);
      for (int i = 0; i < 64; ++i) {
        hq::spawn([&vals, i] { vals[static_cast<std::size_t>(i)] = i + 1; });
      }
      hq::sync();
      long sum = std::accumulate(vals.begin(), vals.end(), 0L);
      ASSERT_EQ(sum, 64L * 65 / 2);
    }
  });
}

TEST_P(SchedulerParam, CallRunsInline) {
  hq::scheduler sched(GetParam());
  int x = 0;
  sched.run([&] {
    hq::call([&x] { x = 42; });
    // call() waits: the effect must be visible immediately.
    EXPECT_EQ(x, 42);
  });
}

TEST_P(SchedulerParam, DeepRecursionTree) {
  hq::scheduler sched(GetParam());
  long out = 0;
  sched.run([&] { fib_task(24, &out); });
  EXPECT_EQ(out, serial_fib(24));
}

TEST_P(SchedulerParam, RunIsReusable) {
  hq::scheduler sched(GetParam());
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> n{0};
    sched.run([&] {
      for (int i = 0; i < 100; ++i) hq::spawn([&n] { n.fetch_add(1); });
      hq::sync();
    });
    EXPECT_EQ(n.load(), 100);
  }
}

TEST_P(SchedulerParam, WorkersReported) {
  hq::scheduler sched(GetParam());
  sched.run([&] { EXPECT_EQ(hq::workers(), GetParam()); });
}

INSTANTIATE_TEST_SUITE_P(Workers, SchedulerParam, ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(Scheduler, StatsCountSpawns) {
  hq::scheduler sched(2);
  sched.reset_stats();
  sched.run([&] {
    for (int i = 0; i < 50; ++i) hq::spawn([] {});
    hq::sync();
  });
  auto s = sched.stats();
  EXPECT_EQ(s.spawns, 50u);
  EXPECT_EQ(s.executed, 51u);  // 50 children + root
}

TEST(Scheduler, SpawnArgumentsCapturedByValue) {
  hq::scheduler sched(2);
  std::atomic<long> sum{0};
  sched.run([&] {
    for (int i = 0; i < 100; ++i) {
      hq::spawn([&sum](int v) { sum.fetch_add(v); }, i);
    }
    hq::sync();
  });
  EXPECT_EQ(sum.load(), 100L * 99 / 2);
}

TEST(Scheduler, LargeClosureSpillsToHeap) {
  hq::scheduler sched(2);
  std::array<long, 64> big{};  // 512 bytes: beyond the inline buffer
  big.fill(7);
  std::atomic<long> out{0};
  sched.run([&] {
    hq::spawn([big, &out] {
      long s = 0;
      for (long v : big) s += v;
      out.store(s);
    });
    hq::sync();
  });
  EXPECT_EQ(out.load(), 7L * 64);
}

TEST(Scheduler, NestedSpawnDepth) {
  // A chain of single-child tasks, each waiting on its child: exercises
  // help-while-blocked re-entrancy.
  hq::scheduler sched(2);
  constexpr int kDepth = 200;
  std::atomic<int> max_seen{0};
  struct Chain {
    static void step(int depth, int limit, std::atomic<int>* max_seen) {
      if (depth > max_seen->load()) max_seen->store(depth);
      if (depth < limit) {
        hq::spawn(step, depth + 1, limit, max_seen);
        hq::sync();
      }
    }
  };
  sched.run([&] { Chain::step(0, kDepth, &max_seen); });
  EXPECT_EQ(max_seen.load(), kDepth);
}

}  // namespace
