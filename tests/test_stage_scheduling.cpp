// Stage scheduling of the hyperqueue lowering: stage frames start in chain
// order and never nest inside another stage's blocking wait
// (sched/scheduler.hpp). Checked three ways:
//  * the scheduler rules directly, on hand-spawned stage frames;
//  * a deadlock-freedom matrix: generated 2..6-stage chains mixing every
//    stage kind, on both data paths, at 1/2/3/4/8 workers, with and without
//    a tight memory budget and under every admission policy — every run
//    completes and matches the serial elision (the lossy policies: the
//    elision of the items they admitted);
//  * overlap: a source that cannot finish until the sink has retired its
//    first item, which a schedule nesting the sink under the other stages
//    can only satisfy by timing out.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pipeline/runner.hpp"
#include "sched/spawn.hpp"

namespace {

using hq::pipe::admission_policy;
using hq::pipe::backend;
using hq::pipe::edge_opts;
using hq::pipe::emit;
using hq::pipe::graph;
using hq::pipe::stage_kind;

// ------------------------------------------------------ scheduler rules

TEST(StageRules, StageFramesStartInSpawnOrder) {
  // One worker: the root's sync starts every stage, oldest first.
  hq::scheduler sched(1);
  std::vector<int> order;
  sched.run([&] {
    for (int i = 0; i < 5; ++i) hq::spawn_stage([&order, i] { order.push_back(i); });
    hq::sync();
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(StageRules, BlockedStageRunsChildrenButNoOtherStage) {
  // Stage A waits on its own children; the wait must run them (non-stage
  // tasks) but must not start stage B on A's stack.
  hq::scheduler sched(1);
  std::atomic<bool> a_done{false};
  bool b_saw_a_done = false;
  int children = 0;
  sched.run([&] {
    hq::spawn_stage([&] {
      for (int i = 0; i < 8; ++i) hq::spawn([&children] { ++children; });
      hq::sync();
      a_done.store(true);
    });
    hq::spawn_stage([&] { b_saw_a_done = a_done.load(); });
    hq::sync();
  });
  EXPECT_EQ(children, 8);
  EXPECT_TRUE(b_saw_a_done);
}

TEST(StageRules, WorkersAtLeastStagesRunEveryStageConcurrently) {
  // Each stage waits (bounded) until all of them have started: only a
  // schedule that runs the three loops side by side gets there in time.
  hq::scheduler sched(3);
  std::atomic<int> started{0};
  std::atomic<int> met{0};
  sched.run([&] {
    for (int i = 0; i < 3; ++i) {
      hq::spawn_stage([&] {
        started.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (started.load() < 3 && std::chrono::steady_clock::now() < deadline)
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (started.load() == 3) met.fetch_add(1);
      });
    }
    hq::sync();
  });
  EXPECT_EQ(met.load(), 3);
}

// ---------------------------------------------- deadlock-freedom matrix

enum class mid { serial, in_order, parallel, expand_parallel, expand_serial };

struct chain_shape {
  std::vector<mid> mids;
  stage_kind sink = stage_kind::serial_in_order;
};

// Chains of 2..6 stages; every middle kind appears, and expand stages sit
// both before and after other kinds.
const std::vector<chain_shape>& shapes() {
  static const std::vector<chain_shape> v = {
      {{}, stage_kind::serial_in_order},
      {{mid::parallel}, stage_kind::serial},
      {{mid::expand_parallel, mid::serial}, stage_kind::serial_in_order},
      {{mid::in_order, mid::parallel, mid::expand_serial}, stage_kind::serial},
      {{mid::parallel, mid::expand_serial, mid::in_order, mid::parallel},
       stage_kind::serial_in_order},
  };
  return v;
}

std::uint64_t mix(std::uint64_t v) {
  v ^= v >> 31;
  v *= 0x9E3779B97F4A7C15ull;
  return v ^ (v >> 29);
}

// A little uneven work so parallel activations finish out of order.
std::uint64_t work(std::uint64_t v) {
  const std::uint64_t rounds = (v % 7) * 40;
  for (std::uint64_t i = 0; i < rounds; ++i) v = mix(v);
  return v;
}

constexpr std::uint64_t kItems = 192;

std::vector<std::uint64_t> all_items() {
  std::vector<std::uint64_t> v(kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) v[i] = i;
  return v;
}

/// One fresh instance of a generated chain: the graph plus the state its
/// serial stages carry and the sink's output. The source emits `items`;
/// the first stage after it marks which of them admission let through.
struct chain {
  graph g;
  std::vector<std::uint64_t> items;
  std::vector<std::uint64_t> out;
  std::vector<std::unique_ptr<std::uint64_t>> counters;
  std::unique_ptr<std::atomic<bool>[]> arrived{new std::atomic<bool>[kItems]()};

  chain(const chain_shape& s, const edge_opts& opts,
        std::vector<std::uint64_t> source_items = all_items())
      : items(std::move(source_items)) {
    std::vector<hq::pipe::stage_id> ids;
    ids.push_back(g.source<std::uint64_t>("src", [this](emit<std::uint64_t> o) {
      for (std::uint64_t i : items) o(std::uint64_t{i});
    }));
    for (std::size_t i = 0; i < s.mids.size(); ++i) {
      const std::string name = "m" + std::to_string(i);
      counters.push_back(std::make_unique<std::uint64_t>(0));
      std::uint64_t* n = counters.back().get();
      std::atomic<bool>* mark = i == 0 ? arrived.get() : nullptr;
      switch (s.mids[i]) {
        case mid::serial:
        case mid::in_order:
          // Stateful: numbers its inputs, so any order slip shows.
          ids.push_back(g.stage<std::uint64_t, std::uint64_t>(
              name,
              s.mids[i] == mid::serial ? stage_kind::serial
                                       : stage_kind::serial_in_order,
              [n, mark](std::uint64_t&& v, emit<std::uint64_t> o) {
                if (mark != nullptr) mark[v].store(true);
                o(mix(v) + (*n)++);
              }));
          break;
        case mid::parallel:
          ids.push_back(g.stage<std::uint64_t, std::uint64_t>(
              name, stage_kind::parallel,
              [mark](std::uint64_t&& v, emit<std::uint64_t> o) {
                if (mark != nullptr) mark[v].store(true);
                o(work(v));
              }));
          break;
        case mid::expand_parallel:
          ids.push_back(g.expand<std::uint64_t, std::uint64_t>(
              name, stage_kind::parallel,
              [mark](std::uint64_t&& v, emit<std::uint64_t> o) {
                if (mark != nullptr) mark[v].store(true);
                const std::uint64_t w = work(v);
                for (std::uint64_t j = 0; j < v % 3; ++j) o(w + j);
              }));
          break;
        case mid::expand_serial:
          ids.push_back(g.expand<std::uint64_t, std::uint64_t>(
              name, stage_kind::serial,
              [n, mark](std::uint64_t&& v, emit<std::uint64_t> o) {
                if (mark != nullptr) mark[v].store(true);
                for (std::uint64_t j = 0; j < (v >> 3) % 3; ++j)
                  o(mix(v) + (*n)++);
              }));
          break;
      }
    }
    std::atomic<bool>* mark = s.mids.empty() ? arrived.get() : nullptr;
    ids.push_back(g.sink<std::uint64_t>(
        "snk", s.sink, [this, mark](std::uint64_t&& v) {
          if (mark != nullptr) mark[v].store(true);
          out.push_back(v);
        }));
    for (std::size_t i = 0; i + 1 < ids.size(); ++i)
      g.connect(ids[i], ids[i + 1], opts);
  }

  /// Source items that reached the first stage, in emission order.
  [[nodiscard]] std::vector<std::uint64_t> admitted() const {
    std::vector<std::uint64_t> v;
    for (std::uint64_t i : items)
      if (arrived[i].load()) v.push_back(i);
    return v;
  }
};

class StageMatrix
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(StageMatrix, EveryScheduleMatchesTheElision) {
  const chain_shape& shape = shapes()[std::get<0>(GetParam())];
  const unsigned workers = std::get<1>(GetParam());

  edge_opts base;
  base.slice_batch = 4;
  base.segment_length = 8;
  chain ref(shape, base);
  (void)hq::pipe::execute(ref.g, backend::serial);

  for (backend b : {backend::hyperqueue, backend::hyperqueue_element}) {
    for (bool tight : {false, true}) {
      for (admission_policy pol :
           {admission_policy::none, admission_policy::block,
            admission_policy::shed, admission_policy::bounded_wait}) {
        edge_opts opts = base;
        // 1 byte rounds up to the structural minimum of two segments.
        if (tight) opts.memory_budget = 1;
        hq::pipe::exec_options eo;
        eo.workers = workers;
        eo.admission.policy = pol;
        eo.admission.window = 8;
        eo.admission.max_wait_ns = 20000;
        chain c(shape, opts);
        const auto res = hq::pipe::execute(c.g, b, eo);
        const std::string where =
            std::string(hq::pipe::to_string(b)) + " tight=" +
            std::to_string(tight) + " policy=" +
            std::to_string(static_cast<int>(pol));
        if (pol == admission_policy::shed ||
            pol == admission_policy::bounded_wait) {
          // Lossy: the output must be the elision of exactly the items
          // that were admitted.
          EXPECT_EQ(res.admitted + res.shed, kItems) << where;
          const std::vector<std::uint64_t> kept = c.admitted();
          EXPECT_EQ(kept.size(), res.admitted) << where;
          chain expect(shape, base, kept);
          (void)hq::pipe::execute(expect.g, backend::serial);
          EXPECT_EQ(c.out, expect.out) << where;
        } else {
          EXPECT_EQ(c.out, ref.out) << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chains, StageMatrix,
    ::testing::Combine(::testing::Range<std::size_t>(0, 5),
                       ::testing::Values(1u, 2u, 3u, 4u, 8u)),
    [](const ::testing::TestParamInfo<StageMatrix::ParamType>& info) {
      return std::to_string(std::get<0>(info.param) + 2) + "stages_W" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------- named regression

TEST(StageScheduling, DedupBelowStageCount) {
  // Dedup has four stages. Re-enqueueing a deferred stage at the deque
  // bottom lets downstream stages start first; at two or three workers
  // every worker then parks in a downstream wait and the source never runs.
  hq::pipe::ensure_builtin_apps();
  for (unsigned w : {2u, 3u}) {
    for (backend b : {backend::hyperqueue, backend::hyperqueue_element}) {
      hq::pipe::app_params p;
      p.workers = w;
      const auto run = hq::pipe::run_app("dedup", b, p);
      EXPECT_TRUE(run.ok) << hq::pipe::to_string(b) << " workers=" << w
                          << " " << run.exec.error;
    }
  }
}

// ------------------------------------------------------------ overlap

TEST(StageScheduling, SinkRetiresWhileSourceStillRuns) {
  // The source holds back its last item until the sink has retired item 0
  // (bounded, so a serializing schedule fails here rather than hanging).
  constexpr std::uint64_t kN = 65;
  std::atomic<bool> first_retired{false};
  bool seen_in_time = false;
  std::vector<std::uint64_t> out;

  graph g;
  auto src = g.source<std::uint64_t>("src", [&](emit<std::uint64_t> o) {
    for (std::uint64_t i = 0; i + 1 < kN; ++i) o(std::uint64_t{i});
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!first_retired.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    seen_in_time = first_retired.load();
    o(kN - 1);
  });
  auto mid = g.stage<std::uint64_t, std::uint64_t>(
      "mid", stage_kind::parallel,
      [](std::uint64_t&& v, emit<std::uint64_t> o) { o(std::move(v)); });
  auto snk = g.sink<std::uint64_t>("snk", stage_kind::serial_in_order,
                                   [&](std::uint64_t&& v) {
                                     out.push_back(v);
                                     first_retired.store(true);
                                   });
  edge_opts opts;
  opts.slice_batch = 4;  // 64 = 16 full batches, all flushed before the wait
  g.connect(src, mid, opts);
  g.connect(mid, snk, opts);
  hq::pipe::exec_options eo;
  eo.workers = 4;
  (void)hq::pipe::execute(g, backend::hyperqueue, eo);

  EXPECT_TRUE(seen_in_time);
  ASSERT_EQ(out.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i);
}

}  // namespace
