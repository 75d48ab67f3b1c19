#include "host.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

namespace perfbench::host {

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

cpu_ticks read_cpu_ticks() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal guest guest_nice". guest time is already counted in user.
  std::ifstream f("/proc/stat");
  std::string line;
  cpu_ticks t;
  if (!std::getline(f, line)) return t;
  std::istringstream in(line);
  std::string label;
  in >> label;
  std::uint64_t v[8] = {};
  for (auto& x : v) in >> x;
  for (auto x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double steal_share(const cpu_ticks& from, const cpu_ticks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

bool reset_peak_rss() {
  // Hand freed heap pages back first, so the new peak starts from the live
  // heap and not from what earlier runs left cached in malloc's arenas.
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(std::strlen("VmHWM:"))) / 1024.0;
  }
  return 0.0;
}

void write_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::system_error(errno, std::generic_category(), "write");
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

std::vector<std::uint8_t> run_forked(const std::function<void(int fd)>& child) {
  namespace fs = std::filesystem;
  const auto threads = std::distance(fs::directory_iterator("/proc/self/task"),
                                     fs::directory_iterator());
  if (threads != 1) throw std::logic_error("run_forked: other threads are running");
  int fds[2];
  if (::pipe(fds) != 0) throw std::system_error(errno, std::generic_category(), "pipe");
  std::fflush(nullptr);  // the child must not repeat buffered output
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::system_error(err, std::generic_category(), "fork");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      child(fds[1]);
    } catch (...) {
      code = 1;
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  std::vector<std::uint8_t> out;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fds[0]);
  int status = 0;
  pid_t waited = -1;
  do {
    waited = ::waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("run_forked: child failed");
  return out;
}

}  // namespace perfbench::host
