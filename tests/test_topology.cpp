// Topology model and placement planning tests.
//
// The sysfs parser runs against golden fixture trees (tests/fixtures/sysfs,
// injected via from_sysfs's root parameter) so it is tested byte-for-byte
// regardless of the CI machine; the synthetic specs and the placement
// planner are pure functions and are tested for the properties the runtime
// relies on — determinism above all, since placement feeds arena
// allocation and steal order while the output-determinism gates must hold
// for any placement.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/topology.hpp"
#include "hq.hpp"

namespace {

using hq::cpu_desc;
using hq::placement_policy;
using hq::topology;

std::string fixture(const char* name) {
  return std::string(HQ_FIXTURE_DIR) + "/sysfs/" + name;
}

// ------------------------------------------------------------ sysfs parsing

TEST(TopologySysfs, SingleNode) {
  const topology t = topology::from_sysfs(fixture("single_node"));
  EXPECT_EQ(t.num_cpus(), 4u);
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.num_packages(), 1u);
  EXPECT_EQ(t.num_llcs(), 1u);
  EXPECT_EQ(t.num_cores(), 4u);
  EXPECT_FALSE(t.is_synthetic());
  for (const cpu_desc& d : t.cpus()) {
    EXPECT_EQ(d.node, 0u);
    EXPECT_EQ(d.smt, 0u);
  }
}

TEST(TopologySysfs, TwoSocketSmt) {
  const topology t = topology::from_sysfs(fixture("two_socket"));
  EXPECT_EQ(t.num_cpus(), 8u);
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_packages(), 2u);
  EXPECT_EQ(t.num_llcs(), 2u);
  EXPECT_EQ(t.num_cores(), 4u);

  const cpu_desc* c0 = t.find(0);
  const cpu_desc* c1 = t.find(1);
  const cpu_desc* c2 = t.find(2);
  const cpu_desc* c4 = t.find(4);
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  ASSERT_NE(c4, nullptr);
  // 0 and 1 are SMT siblings of one core; 2 shares their LLC/node; 4 is on
  // the other socket.
  EXPECT_EQ(c0->core, c1->core);
  EXPECT_EQ(c0->smt, 0u);
  EXPECT_EQ(c1->smt, 1u);
  EXPECT_EQ(topology::distance(*c0, *c0), topology::kDistSelf);
  EXPECT_EQ(topology::distance(*c0, *c1), topology::kDistSmt);
  EXPECT_EQ(topology::distance(*c0, *c2), topology::kDistLlc);
  EXPECT_EQ(topology::distance(*c0, *c4), topology::kDistRemote);
  EXPECT_NE(c0->node, c4->node);
}

TEST(TopologySysfs, SmtOff) {
  const topology t = topology::from_sysfs(fixture("smt_off"));
  EXPECT_EQ(t.num_cpus(), 4u);
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_cores(), 4u);  // every CPU its own core
  for (const cpu_desc& d : t.cpus()) EXPECT_EQ(d.smt, 0u);
  const cpu_desc* c0 = t.find(0);
  const cpu_desc* c1 = t.find(1);
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(topology::distance(*c0, *c1), topology::kDistLlc);
}

TEST(TopologySysfs, OfflineCpusAreSkipped) {
  const topology t = topology::from_sysfs(fixture("offline_cpus"));
  EXPECT_EQ(t.num_cpus(), 3u);  // cpu1 is offline
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_NE(t.find(0), nullptr);
  EXPECT_EQ(t.num_nodes(), 2u);
  // cpu0's sibling list names the offline cpu1: the SMT rank must only
  // count online siblings.
  EXPECT_EQ(t.find(0)->smt, 0u);
}

TEST(TopologySysfs, MissingTreeIsEmpty) {
  const topology t = topology::from_sysfs(fixture("no_such_tree"));
  EXPECT_EQ(t.num_cpus(), 0u);
}

// ------------------------------------------------------------ synthetic specs

TEST(TopologySynthetic, TwoByEight) {
  const topology t = topology::synthetic("2x8");
  EXPECT_TRUE(t.is_synthetic());
  EXPECT_EQ(t.num_cpus(), 16u);
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_llcs(), 2u);
  EXPECT_EQ(t.num_cores(), 16u);
  EXPECT_EQ(t.find(0)->node, 0u);
  EXPECT_EQ(t.find(8)->node, 1u);
}

TEST(TopologySynthetic, SmtWays) {
  const topology t = topology::synthetic("2x4x2");
  EXPECT_EQ(t.num_cpus(), 8u);
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_cores(), 4u);
  const cpu_desc* c0 = t.find(0);
  const cpu_desc* c1 = t.find(1);
  EXPECT_EQ(c0->core, c1->core);
  EXPECT_EQ(c1->smt, 1u);
}

TEST(TopologySynthetic, InvalidSpecFallsBackFlat) {
  for (const char* bad : {"", "0x4", "2x", "axb", "2x4x3" /* 4 % 3 != 0 */}) {
    const topology t = topology::synthetic(bad);
    EXPECT_TRUE(t.is_synthetic()) << bad;
    EXPECT_EQ(t.num_nodes(), 1u) << bad;
    EXPECT_GE(t.num_cpus(), 1u) << bad;
  }
}

// ------------------------------------------------------------ placement plan

TEST(Placement, CompactFillsNodeByNode) {
  const topology t = topology::synthetic("2x4");
  const auto cpus = hq::plan_placement(t, placement_policy::compact, 8);
  ASSERT_EQ(cpus.size(), 8u);
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(t.find(cpus[w])->node, 0u) << w;
  for (unsigned w = 4; w < 8; ++w) EXPECT_EQ(t.find(cpus[w])->node, 1u) << w;
}

TEST(Placement, ScatterAlternatesNodes) {
  const topology t = topology::synthetic("2x4");
  const auto cpus = hq::plan_placement(t, placement_policy::scatter, 4);
  ASSERT_EQ(cpus.size(), 4u);
  for (unsigned w = 0; w < 4; ++w) {
    EXPECT_EQ(t.find(cpus[w])->node, w % 2) << w;
  }
}

TEST(Placement, CompactKeepsSmtSiblingsAdjacent) {
  const topology t = topology::synthetic("1x4x2");
  const auto cpus = hq::plan_placement(t, placement_policy::compact, 4);
  ASSERT_EQ(cpus.size(), 4u);
  EXPECT_EQ(t.find(cpus[0])->core, t.find(cpus[1])->core);
  EXPECT_EQ(t.find(cpus[2])->core, t.find(cpus[3])->core);
}

TEST(Placement, OversubscriptionWraps) {
  const topology t = topology::synthetic("2x2");
  const auto cpus = hq::plan_placement(t, placement_policy::compact, 10);
  ASSERT_EQ(cpus.size(), 10u);
  for (unsigned w = 4; w < 10; ++w) EXPECT_EQ(cpus[w], cpus[w - 4]);
}

TEST(Placement, NonePlansNothing) {
  const topology t = topology::synthetic("2x4");
  EXPECT_TRUE(hq::plan_placement(t, placement_policy::none, 4).empty());
}

TEST(Placement, DeterministicAcrossCalls) {
  const topology t = topology::synthetic("4x8x2");
  for (auto pol : {placement_policy::compact, placement_policy::scatter}) {
    const auto a = hq::plan_placement(t, pol, 23);
    const auto b = hq::plan_placement(t, pol, 23);
    EXPECT_EQ(a, b);
  }
}

// ----------------------------------------------------------- scheduler wiring

TEST(SchedulerPlacement, PerWorkerStatsReportAssignment) {
  const topology t = topology::synthetic("2x2");
  hq::scheduler sched(4, {placement_policy::compact, &t});
  const auto ws = sched.per_worker_stats();
  ASSERT_EQ(ws.size(), 4u);
  EXPECT_EQ(ws[0].node, 0);
  EXPECT_EQ(ws[1].node, 0);
  EXPECT_EQ(ws[2].node, 1);
  EXPECT_EQ(ws[3].node, 1);
  for (const auto& w : ws) EXPECT_GE(w.cpu, 0);
  EXPECT_EQ(sched.policy(), placement_policy::compact);
  EXPECT_EQ(sched.topo().num_nodes(), 2u);
  // The scheduler still runs work regardless of whether the pins stuck.
  std::atomic<int> ran{0};
  sched.run([&] {
    for (int i = 0; i < 100; ++i) {
      hq::spawn([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    hq::sync();
  });
  EXPECT_EQ(ran.load(), 100);
}

TEST(SchedulerPlacement, PolicyNoneLeavesWorkersUnplaced) {
  hq::scheduler sched(2, {placement_policy::none, nullptr});
  for (const auto& w : sched.per_worker_stats()) {
    EXPECT_EQ(w.cpu, -1);
    EXPECT_EQ(w.node, -1);
    EXPECT_FALSE(w.pinned);
  }
}

TEST(SchedulerPlacement, QueueHomeNodeFollowsPlan) {
  // Home a queue's arena on node 1 of a two-node model and run a pipeline
  // through it: behavior (and output) must be unchanged.
  constexpr int kNode = 1;
  const topology t = topology::synthetic("2x2");
  hq::scheduler sched(2, {placement_policy::compact, &t});
  long long sum = 0;
  sched.run([&] {
    hq::hyperqueue<int> q(64, kNode);
    EXPECT_EQ(q.home_node(), kNode);
    hq::spawn(
        [](hq::pushdep<int> out) {
          for (int i = 0; i < 10000; ++i) out.push(i);
        },
        (hq::pushdep<int>)q);
    hq::spawn(
        [&sum](hq::popdep<int> in) {
          while (!in.empty()) sum += in.pop();
        },
        (hq::popdep<int>)q);
    hq::sync();
  });
  EXPECT_EQ(sum, 10000LL * 9999 / 2);
}

}  // namespace
