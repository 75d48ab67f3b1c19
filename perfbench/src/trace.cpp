#include "trace.hpp"

#include <atomic>
#include <memory>
#include <mutex>

namespace perfbench::trace {

namespace {

std::mutex g_mu;
std::vector<std::unique_ptr<thread_log>> g_logs;  // guarded by g_mu
std::size_t g_claimed = 0;                        // guarded by g_mu
std::atomic<std::uint64_t> g_run{1};

struct local_slot {
  thread_log* log = nullptr;
  std::uint64_t run = 0;
};
thread_local local_slot t_slot;

}  // namespace

void begin_run() {
  std::lock_guard<std::mutex> lk(g_mu);
  for (auto& l : g_logs) {
    l->spans.clear();  // keeps capacity: later runs do not regrow it
    l->emitted.fill(0);
    l->nested.clear();
  }
  g_claimed = 0;
  g_run.fetch_add(1, std::memory_order_release);
}

thread_log& local() {
  const std::uint64_t run = g_run.load(std::memory_order_acquire);
  if (t_slot.run != run) {
    std::lock_guard<std::mutex> lk(g_mu);
    if (g_claimed == g_logs.size())
      g_logs.push_back(std::make_unique<thread_log>());
    t_slot.log = g_logs[g_claimed++].get();
    t_slot.run = run;
  }
  return *t_slot.log;
}

std::vector<const thread_log*> logs() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<const thread_log*> out;
  for (std::size_t i = 0; i < g_claimed; ++i) out.push_back(g_logs[i].get());
  return out;
}

}  // namespace perfbench::trace
