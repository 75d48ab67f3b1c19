// Machine topology model: packages, NUMA nodes, last-level-cache groups,
// cores and SMT siblings, plus the deterministic placement policies built
// on it.
//
// The model is parsed from /sys/devices/system/{cpu,node} (the root is
// injectable so tests can run against golden fixture trees), or fabricated
// from the HQ_TOPOLOGY env knob:
//
//   HQ_TOPOLOGY=flat      one node holding every hardware thread
//   HQ_TOPOLOGY=2x8       2 nodes x 8 CPUs (one LLC and package per node)
//   HQ_TOPOLOGY=2x8x2     2 nodes x 8 CPUs with 2-way SMT (4 cores/node)
//
// Synthetic topologies exist so single-node CI machines exercise every
// multi-node code path (per-node arenas, distance-ordered stealing, the
// pipeline runner's chain-block queue homes) deterministically. Placement built on a synthetic
// model is *logical*: worker pinning to CPUs the real machine lacks simply
// fails and is recorded as unpinned, while arenas, steal order and the
// locality counters all follow the synthetic node ids.
//
// Everything here is a pure function of its inputs — no randomness, no
// iteration-order dependence — so any placement derived from a topology is
// reproducible run over run, which the determinism gates require.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hq {

/// One hardware thread (logical CPU) and the sharing domains it belongs to.
/// All ids are dense indices into the owning topology (NOT raw sysfs ids).
struct cpu_desc {
  unsigned cpu = 0;      ///< logical CPU id (sysfs cpuN / synthetic index)
  unsigned package = 0;  ///< physical package (socket)
  unsigned node = 0;     ///< NUMA node
  unsigned llc = 0;      ///< last-level-cache sharing group
  unsigned core = 0;     ///< physical core (globally unique across packages)
  unsigned smt = 0;      ///< thread rank within the core (0 = first sibling)
};

class topology {
 public:
  /// Steal-distance rungs between two CPUs, nearest first. try_steal walks
  /// victims in this order: an SMT sibling shares L1/L2, an LLC peer shares
  /// the last-level cache, a node peer at least shares the memory
  /// controller; everything beyond pays a cross-package cache-line bounce.
  enum : unsigned {
    kDistSelf = 0,
    kDistSmt = 1,
    kDistLlc = 2,
    kDistNode = 3,
    kDistPackage = 4,
    kDistRemote = 5,
  };

  /// The process-wide model: HQ_TOPOLOGY when set, else the real machine,
  /// else a flat fallback. Resolved once and cached.
  static const topology& system();

  /// Uncached detection (env, then sysfs, then flat).
  static topology detect();

  /// Parse a sysfs tree rooted at `root` (normally /sys/devices/system;
  /// tests inject fixture directories). Missing files degrade gracefully:
  /// absent node dirs collapse to one node, absent cache dirs make the LLC
  /// group the node, absent sibling lists make every CPU its own core.
  static topology from_sysfs(const std::string& root);

  /// Build the synthetic model for an HQ_TOPOLOGY spec. Unparsable specs
  /// fall back to flat (the knob must never brick a run).
  static topology synthetic(std::string_view spec);

  /// One node, one LLC, `ncpus` single-thread cores.
  static topology flat(unsigned ncpus);

  [[nodiscard]] const std::vector<cpu_desc>& cpus() const noexcept { return cpus_; }
  [[nodiscard]] unsigned num_cpus() const noexcept {
    return static_cast<unsigned>(cpus_.size());
  }
  [[nodiscard]] unsigned num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] unsigned num_llcs() const noexcept { return num_llcs_; }
  [[nodiscard]] unsigned num_cores() const noexcept { return num_cores_; }
  [[nodiscard]] unsigned num_packages() const noexcept { return num_packages_; }
  /// True when the model came from HQ_TOPOLOGY rather than the machine.
  [[nodiscard]] bool is_synthetic() const noexcept { return synthetic_; }

  /// Descriptor for a logical CPU id; null when the id is not in the model.
  [[nodiscard]] const cpu_desc* find(unsigned cpu) const noexcept;

  /// Topology distance (kDist* rung) between two CPUs of this model.
  [[nodiscard]] static unsigned distance(const cpu_desc& a, const cpu_desc& b) noexcept;

 private:
  void index();  ///< recompute the num_* counts from cpus_

  std::vector<cpu_desc> cpus_;
  unsigned num_nodes_ = 0;
  unsigned num_llcs_ = 0;
  unsigned num_cores_ = 0;
  unsigned num_packages_ = 0;
  bool synthetic_ = false;
};

/// Worker pinning policy (HQ_PLACEMENT):
///  * none    — no pinning, no per-worker node affinity (the pre-topology
///              behavior); steal order is a plain index rotation;
///  * compact — fill the machine domain by domain: node 0's cores (SMT
///              siblings adjacent) before node 1 — minimizes the number of
///              nodes touched, producer/consumer pairs share caches;
///  * scatter — round-robin workers across nodes (compact order within
///              each) — maximizes memory bandwidth per worker.
enum class placement_policy : std::uint8_t { none, compact, scatter };

/// HQ_PLACEMENT env knob (none when unset or unrecognized).
[[nodiscard]] placement_policy placement_policy_from_env() noexcept;

[[nodiscard]] const char* to_string(placement_policy p) noexcept;

/// Deterministic worker -> CPU assignment: a pure function of (topology,
/// policy, worker count). Returns one CPU id per worker; more workers than
/// CPUs wrap around (oversubscription keeps the mapping total). Empty for
/// policy none.
[[nodiscard]] std::vector<unsigned> plan_placement(const topology& topo,
                                                   placement_policy policy,
                                                   unsigned num_workers);

}  // namespace hq
