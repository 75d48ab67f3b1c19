// Tests for versioned objects and indep/outdep/inoutdep dependence tracking
// (the paper's baseline task-dataflow model, Figure 1).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <vector>

#include "sched/dataflow.hpp"
#include "sched/spawn.hpp"

namespace {

class DataflowParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(DataflowParam, InoutSerializesChain) {
  // A chain of inoutdep tasks must execute strictly in spawn order.
  hq::scheduler sched(GetParam());
  hq::versioned<std::vector<int>> log;
  sched.run([&] {
    for (int i = 0; i < 100; ++i) {
      hq::spawn([i](hq::inoutdep<std::vector<int>> v) { v->push_back(i); },
                (hq::inoutdep<std::vector<int>>)log);
    }
    hq::sync();
  });
  auto& result = log.get();
  ASSERT_EQ(result.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(result[static_cast<std::size_t>(i)], i);
}

TEST_P(DataflowParam, ReadAfterWriteOrdering) {
  hq::scheduler sched(GetParam());
  hq::versioned<int> value;
  std::atomic<int> seen{-1};
  sched.run([&] {
    hq::spawn([](hq::inoutdep<int> v) { *v = 77; }, (hq::inoutdep<int>)value);
    hq::spawn([&seen](hq::indep<int> v) { seen.store(*v); }, (hq::indep<int>)value);
    hq::sync();
  });
  EXPECT_EQ(seen.load(), 77);
}

TEST_P(DataflowParam, WriteAfterReadWaitsForReaders) {
  hq::scheduler sched(GetParam());
  hq::versioned<int> value(5);
  std::atomic<bool> reader_done{false};
  std::atomic<bool> writer_saw_reader_done{false};
  sched.run([&] {
    hq::spawn(
        [&reader_done](hq::indep<int> v) {
          EXPECT_EQ(*v, 5);
          reader_done.store(true);
        },
        (hq::indep<int>)value);
    hq::spawn(
        [&](hq::inoutdep<int> v) {
          writer_saw_reader_done.store(reader_done.load());
          *v = 6;
        },
        (hq::inoutdep<int>)value);
    hq::sync();
  });
  EXPECT_TRUE(writer_saw_reader_done.load());
  EXPECT_EQ(value.get(), 6);
}

TEST_P(DataflowParam, OutdepRenamesAndDoesNotWait) {
  // outdep creates a fresh version: the writer must not wait for readers of
  // the old version, and later readers see the new version.
  hq::scheduler sched(GetParam());
  hq::versioned<int> value(1);
  std::atomic<int> old_read{0};
  std::atomic<int> new_read{0};
  sched.run([&] {
    hq::spawn([&old_read](hq::indep<int> v) { old_read.store(*v); },
              (hq::indep<int>)value);
    hq::spawn([](hq::outdep<int> v) { *v = 2; }, (hq::outdep<int>)value);
    hq::spawn([&new_read](hq::indep<int> v) { new_read.store(*v); },
              (hq::indep<int>)value);
    hq::sync();
  });
  EXPECT_EQ(old_read.load(), 1);
  EXPECT_EQ(new_read.load(), 2);
}

TEST_P(DataflowParam, Figure1PipelinePattern) {
  // The paper's Figure 1: produce(outdep value); consume(indep value,
  // inoutdep state). Producers may all run in parallel (renaming); consumes
  // are serialized on the state and each sees its iteration's value.
  hq::scheduler sched(GetParam());
  constexpr int kTotal = 200;
  hq::versioned<int> value;
  hq::versioned<std::vector<int>> state;
  sched.run([&] {
    for (int i = 0; i < kTotal; ++i) {
      hq::spawn([i](hq::outdep<int> v) { *v = i * 10; }, (hq::outdep<int>)value);
      hq::spawn(
          [](hq::indep<int> v, hq::inoutdep<std::vector<int>> st) {
            st->push_back(*v);
          },
          (hq::indep<int>)value, (hq::inoutdep<std::vector<int>>)state);
    }
    hq::sync();
  });
  auto& consumed = state.get();
  ASSERT_EQ(consumed.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) {
    EXPECT_EQ(consumed[static_cast<std::size_t>(i)], i * 10) << "iteration " << i;
  }
}

TEST_P(DataflowParam, ParallelReadersShareVersion) {
  hq::scheduler sched(GetParam());
  hq::versioned<int> value(9);
  std::atomic<int> sum{0};
  sched.run([&] {
    for (int i = 0; i < 64; ++i) {
      hq::spawn([&sum](hq::indep<int> v) { sum.fetch_add(*v); },
                (hq::indep<int>)value);
    }
    hq::sync();
  });
  EXPECT_EQ(sum.load(), 9 * 64);
}

TEST_P(DataflowParam, NestedSubsetPrivileges) {
  // A task that received an indep may pass it on to children; all read the
  // same version even if the tracker has moved on meanwhile.
  hq::scheduler sched(GetParam());
  hq::versioned<int> value(3);
  std::atomic<int> sum{0};
  sched.run([&] {
    hq::spawn(
        [&sum](hq::indep<int> v) {
          for (int i = 0; i < 8; ++i) {
            hq::spawn([&sum](hq::indep<int> inner) { sum.fetch_add(*inner); }, v);
          }
          hq::sync();
        },
        (hq::indep<int>)value);
    hq::spawn([](hq::outdep<int> v) { *v = 100; }, (hq::outdep<int>)value);
    hq::sync();
  });
  EXPECT_EQ(sum.load(), 3 * 8) << "children must read the parent's version";
}

TEST_P(DataflowParam, VersionOutlivesVariable) {
  // Tasks keep their version alive even if the versioned<T> goes out of
  // scope before they run.
  hq::scheduler sched(GetParam());
  std::atomic<int> got{0};
  sched.run([&] {
    {
      hq::versioned<int> value(123);
      hq::spawn([&got](hq::indep<int> v) { got.store(*v); }, (hq::indep<int>)value);
    }  // variable destroyed; task may not have run yet
    hq::sync();
  });
  EXPECT_EQ(got.load(), 123);
}

INSTANTIATE_TEST_SUITE_P(Workers, DataflowParam, ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(Dataflow, LongMixedChainStress) {
  hq::scheduler sched(4);
  hq::versioned<long> acc(0);
  constexpr int kN = 500;
  sched.run([&] {
    for (int i = 0; i < kN; ++i) {
      if (i % 3 == 0) {
        hq::spawn([](hq::inoutdep<long> v) { *v += 1; }, (hq::inoutdep<long>)acc);
      } else {
        hq::spawn([](hq::indep<long> v) { volatile long x = *v; (void)x; },
                  (hq::indep<long>)acc);
      }
    }
    hq::sync();
  });
  EXPECT_EQ(acc.get(), (kN + 2) / 3);
}

}  // namespace
