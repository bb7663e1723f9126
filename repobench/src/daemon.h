#ifndef REPOBENCH_DAEMON_H_
#define REPOBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace repobench {

/// A semcor_serverd child process. Start() times one cold set-up: from
/// fork until the daemon prints the port it serves on, which it does after
/// WAL open and the advisor precompute. The destructor kills it.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Kill(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  semcor::Status Start(const std::string& binary,
                       const std::vector<std::string>& args,
                       int timeout_ms);
  /// SIGKILL, as a crash would, then reap. Idempotent.
  void Kill();

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  double setup_s() const { return setup_s_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  double setup_s_ = 0;
};

/// A "Vm*" field of /proc/<pid>/status in bytes (0 when unreadable).
int64_t ProcStatusBytes(pid_t pid, const char* field);

/// CPU time (user + system, all threads) process `pid` has used, in ns,
/// from its process CPU clock (0 when it cannot be read). The kernel
/// charges a task only for time it ran: time the hypervisor gave its CPU to
/// another guest (steal) and time spent waiting on a lock, a socket or an
/// fsync are not in it.
int64_t ProcCpuNs(pid_t pid);

}  // namespace repobench

#endif  // REPOBENCH_DAEMON_H_
