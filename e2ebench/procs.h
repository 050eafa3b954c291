// Process hygiene for the benchmark: the hs_server / hs_agent processes it
// starts, the scratch directory they work in, and the interrupt path that
// stops both.
//
// Every child is started with PR_SET_PDEATHSIG so it cannot outlive the
// benchmark, and is stopped and reaped by its owner on success and
// failure. SIGINT/SIGTERM/SIGHUP are taken by a dedicated thread that
// SIGKILLs and reaps every child of this process (including hs_worker
// processes the program's local transport started), removes the scratch
// directory and exits.
#pragma once

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "util/socket.h"

namespace e2e {

/// Blocks the stop signals in every thread (call first in main, before any
/// thread exists) and starts the thread that handles them. `scratch` is
/// removed when a stop signal arrives.
void InstallInterruptGuard(const std::string& scratch);

/// Blocks for good when a stop signal has arrived, so the main thread,
/// unwinding because its children were killed, does not exit ahead of
/// the stop thread's clean-up. Returns at once otherwise.
void AwaitStopIfRequested();

/// A fresh directory removed, with everything in it, on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One started program process. Stop() or the destructor kills (when
/// still running) and reaps it.
class Child {
 public:
  /// Starts `argv` with stdout/stderr appended to `log_path`, watching
  /// `port_file` (which must not exist yet) and returning once the child
  /// published it; throws when the child exits first or `timeout_s`
  /// passes. No sleep-and-poll: the wait blocks on an inotify watch.
  static Child StartWithPortFile(const std::vector<std::string>& argv,
                                 const std::string& port_file,
                                 const std::string& log_path, double timeout_s);

  Child() = default;
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  std::uint16_t port() const { return port_; }

  /// Waits for a clean exit (after a `shutdown` verb); returns its status
  /// as waitpid reports it, SIGKILLing the child after `timeout_s`.
  int WaitExit(double timeout_s);
  /// SIGKILLs the child and its process group, reaps it, and waits until
  /// the group is gone (no-op when already reaped).
  void Kill();

 private:
  /// Closes the pidfd (the child is reaped or about to be).
  void Release();

  pid_t pid_ = -1;
  int pidfd_ = -1;  // pollable until the child exits
  std::uint16_t port_ = 0;
  std::string log_path_;
};

/// Peak resident set of every reaped child (and their reaped children),
/// in MB.
double ChildrenPeakRssMb();
/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

/// Connects to 127.0.0.1:`port` and reads the greeting line, which must be
/// `greeting`; throws otherwise.
hs::Socket ConnectAndGreet(std::uint16_t port, const std::string& greeting);

}  // namespace e2e
