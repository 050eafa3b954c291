#include "procs.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/inotify.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "probe.h"
#include "util/file_util.h"

namespace e2e {

namespace fs = std::filesystem;

namespace {

std::atomic<bool> stop_requested{false};

/// Removes `path` and everything under it. Retries: the main thread may be
/// removing the same tree as it unwinds from a stop.
void RemoveTree(const std::string& path) {
  std::error_code ec;
  for (int attempt = 0; attempt < 100 && fs::exists(path, ec); ++attempt) {
    fs::remove_all(path, ec);
  }
}

sigset_t StopSignals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGHUP);
  return set;
}

/// Children of this process, read from /proc/self/task/*/children.
std::vector<pid_t> OwnChildren() {
  std::vector<pid_t> pids;
  std::error_code ec;
  for (const fs::directory_entry& task : fs::directory_iterator("/proc/self/task", ec)) {
    std::ifstream in(task.path() / "children");
    pid_t pid = 0;
    while (in >> pid) pids.push_back(pid);
  }
  return pids;
}

/// Last `max_bytes` of a log file (for error messages).
std::string LogTail(const std::string& path, std::size_t max_bytes = 800) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream all;
  all << in.rdbuf();
  const std::string text = all.str();
  return text.size() <= max_bytes ? text : text.substr(text.size() - max_bytes);
}

/// SIGKILLs `pid` and, when it leads a process group, everything in it
/// (an hs_agent's hs_worker).
void KillGroup(pid_t pid) {
  kill(-pid, SIGKILL);
  kill(pid, SIGKILL);
}

/// Waits (at most a second) until no process is left in group `pgid`:
/// the agent's workers are not our children, so they cannot be reaped here,
/// only seen to be gone.
void AwaitGroupGone(pid_t pgid) {
  for (int i = 0; i < 1000 && kill(-pgid, 0) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The one inotify instance of the process, watching `dir` for finished
/// port files. It is never closed: closing an inotify descriptor waits for
/// an RCU grace period (5-20 ms here), which would land in set-up time.
int PortWatchFd(const std::string& dir) {
  static const int fd = inotify_init1(IN_CLOEXEC | IN_NONBLOCK);
  static std::set<std::string> watched;
  if (fd < 0) throw std::runtime_error("inotify_init1 failed");
  if (watched.insert(dir).second &&
      inotify_add_watch(fd, dir.c_str(), IN_CLOSE_WRITE | IN_MOVED_TO) < 0) {
    watched.erase(dir);
    throw std::runtime_error("inotify_add_watch failed on " + dir);
  }
  return fd;
}

double MaxRssMb(int who) {
  struct rusage usage {};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

void InstallInterruptGuard(const std::string& scratch) {
  const sigset_t set = StopSignals();
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  std::thread([set, scratch] {
    int sig = 0;
    while (sigwait(&set, &sig) != 0) {
    }
    stop_requested.store(true);
    const std::vector<pid_t> children = OwnChildren();
    for (const pid_t pid : children) KillGroup(pid);
    for (const pid_t pid : children) waitpid(pid, nullptr, 0);
    for (const pid_t pid : children) AwaitGroupGone(pid);
    RemoveTree(scratch);
    std::fprintf(stderr, "e2ebench: stopped by signal %d; children reaped\n", sig);
    std::_Exit(128 + sig);
  }).detach();
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  fs::remove_all(path_, ec);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() { RemoveTree(path_); }

void AwaitStopIfRequested() {
  if (!stop_requested.load()) return;
  for (;;) pause();  // the stop thread exits the process
}

Child Child::StartWithPortFile(const std::vector<std::string>& argv,
                               const std::string& port_file,
                               const std::string& log_path, double timeout_s) {
  const fs::path file(port_file);
  const int watch_fd = PortWatchFd(file.parent_path().string());
  alignas(inotify_event) char buf[4096];
  while (read(watch_fd, buf, sizeof buf) > 0) {
  }  // drop events of earlier port files

  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    setpgid(0, 0);  // its own group, so stopping it takes its workers too
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    sigset_t none;
    sigemptyset(&none);
    sigprocmask(SIG_SETMASK, &none, nullptr);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      dup2(log, STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
    }
    execv(args[0], args.data());
    _exit(127);
  }

  Child child;
  child.pid_ = pid;
  child.pidfd_ = static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
  child.log_path_ = log_path;
  if (child.pidfd_ < 0) throw std::runtime_error("pidfd_open failed");
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  std::string published;
  while (published.empty()) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      child.pid_ = -1;
      child.Release();
      throw std::runtime_error(argv[0] + " exited before publishing its port: " +
                               LogTail(log_path));
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      throw std::runtime_error(argv[0] + " did not publish its port in time");
    }
    // Wakes on the port-file event or on the child's exit.
    pollfd pfds[2] = {{watch_fd, POLLIN, 0}, {child.pidfd_, POLLIN, 0}};
    poll(pfds, 2, static_cast<int>(std::min<long long>(left.count(), INT_MAX)));
    ssize_t n = 0;
    while ((n = read(watch_fd, buf, sizeof buf)) > 0) {
      for (char* p = buf; p < buf + n;) {
        const auto* ev = reinterpret_cast<const inotify_event*>(p);
        if (ev->len > 0 && file.filename() == ev->name) {
          published = hs::ReadTextFile(port_file);
        }
        p += sizeof(inotify_event) + ev->len;
      }
    }
  }
  const long port = std::strtol(published.c_str(), nullptr, 10);
  if (port <= 0 || port > 65535) {
    throw std::runtime_error("bad port file content: '" + published + "'");
  }
  child.port_ = static_cast<std::uint16_t>(port);
  return child;
}

Child::Child(Child&& other) noexcept
    : pid_(other.pid_),
      pidfd_(other.pidfd_),
      port_(other.port_),
      log_path_(std::move(other.log_path_)) {
  other.pid_ = -1;
  other.pidfd_ = -1;
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    Kill();
    pid_ = other.pid_;
    pidfd_ = other.pidfd_;
    port_ = other.port_;
    log_path_ = std::move(other.log_path_);
    other.pid_ = -1;
    other.pidfd_ = -1;
  }
  return *this;
}

Child::~Child() { Kill(); }

void Child::Release() {
  if (pidfd_ >= 0) close(pidfd_);
  pidfd_ = -1;
}

int Child::WaitExit(double timeout_s) {
  if (pid_ <= 0) return -1;
  pollfd pfd{pidfd_, POLLIN, 0};
  if (poll(&pfd, 1, static_cast<int>(timeout_s * 1000)) <= 0) {
    Kill();
    return -1;
  }
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  Release();
  return status;
}

void Child::Kill() {
  if (pid_ <= 0) return;
  KillGroup(pid_);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  AwaitGroupGone(pid_);
  pid_ = -1;
  Release();
}

double ChildrenPeakRssMb() { return MaxRssMb(RUSAGE_CHILDREN); }
double SelfPeakRssMb() { return MaxRssMb(RUSAGE_SELF); }

hs::Socket ConnectAndGreet(std::uint16_t port, const std::string& greeting) {
  hs::Socket socket = hs::ConnectLoopback(port);
  const std::optional<std::string> line = socket.RecvLine();
  if (!line.has_value() || *line != greeting) {
    throw std::runtime_error("port " + std::to_string(port) + " greeted with '" +
                             line.value_or("<eof>") + "', want '" + greeting + "'");
  }
  return socket;
}

}  // namespace e2e
