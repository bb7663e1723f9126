#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/str_util.h"
#include "trace.h"

namespace repobench {

semcor::Status Daemon::Start(const std::string& binary,
                             const std::vector<std::string>& args,
                             int timeout_ms) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return semcor::Status::Internal(
        semcor::StrCat("pipe: ", std::strerror(errno)));
  }
  std::vector<std::string> argv_store = {binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int64_t t0 = MonoNs();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return semcor::Status::Internal(
        semcor::StrCat("fork: ", std::strerror(errno)));
  }
  if (pid == 0) {
    // The daemon dies with the driver, whatever ends the driver.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];

  std::string line;
  for (;;) {
    const int64_t left_ms = timeout_ms - (MonoNs() - t0) / 1'000'000;
    pollfd p{out_fd_, POLLIN, 0};
    if (left_ms <= 0 || ::poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
      Kill();
      return semcor::Status::Internal("daemon did not publish its port");
    }
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) {
      Kill();
      return semcor::Status::Internal(
          semcor::StrCat("daemon exited during set-up: ", binary));
    }
    line.append(buf, static_cast<size_t>(n));
    const size_t at = line.find("127.0.0.1:");
    if (at != std::string::npos && line.find('\n', at) != std::string::npos) {
      setup_s_ = static_cast<double>(MonoNs() - t0) / 1e9;
      port_ = static_cast<uint16_t>(std::atoi(line.c_str() + at + 10));
      return port_ != 0 ? semcor::Status::Ok()
                        : semcor::Status::Internal("daemon printed port 0");
    }
  }
}

void Daemon::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

int64_t ProcStatusBytes(pid_t pid, const char* field) {
  std::ifstream in(semcor::StrCat("/proc/", pid, "/status"));
  const std::string prefix = semcor::StrCat(field, ":");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      std::istringstream rest(line.substr(prefix.size()));
      int64_t kb = 0;
      rest >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

int64_t ProcCpuNs(pid_t pid) {
  clockid_t clock;
  timespec t{};
  if (::clock_getcpuclockid(pid, &clock) != 0 || ::clock_gettime(clock, &t) != 0) {
    return 0;
  }
  return static_cast<int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

}  // namespace repobench
