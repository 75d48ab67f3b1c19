// What the benchmark reads about its host and its own process from /proc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench::host {

/// CPUs this process may run on (what `nproc` prints).
unsigned usable_cpus();

/// Cumulative CPU time counters of the whole host, in clock ticks.
struct cpu_ticks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
cpu_ticks read_cpu_ticks();

/// Share of host CPU time stolen by the hypervisor between two readings.
double steal_share(const cpu_ticks& from, const cpu_ticks& to);

/// Returns freed heap pages to the kernel, then resets the process's peak
/// resident set (VmHWM) to its current size. False when the kernel refuses.
bool reset_peak_rss();

/// The process's peak resident set (VmHWM) in MiB; 0 when unreadable.
double peak_rss_mib();

/// Runs `child` in a forked copy of this process and returns what it wrote
/// to the descriptor it is given, once it has exited. Throws if this process
/// runs other threads (a fork would not copy them), if the fork fails, or if
/// the child throws or exits abnormally.
std::vector<std::uint8_t> run_forked(const std::function<void(int fd)>& child);

/// Writes all `len` bytes to `fd`; throws on error.
void write_all(int fd, const void* data, std::size_t len);

}  // namespace perfbench::host
