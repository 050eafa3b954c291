// Outside-in tracing for the benchmark's traced phase.
//
// Everything here times calls into the program's public functions from the
// benchmark's own files; the program itself is not instrumented. Two
// pieces:
//
//   Tracer          spans (name, start, duration, id, parent id) kept in
//                   memory and written once, at exit, as Chrome trace-event
//                   JSON (opens in Perfetto / chrome://tracing), plus named
//                   aggregates that go into the same file.
//   TimingHandler   a forwarding EventHandler placed between Simulator and
//                   HybridScheduler: it times HandleEvent per EventKind and
//                   OnQuiescent (the scheduling pass) without changing what
//                   the scheduler sees.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  using SpanId = std::uint64_t;
  static constexpr SpanId kRoot = 0;

  /// Records a finished span; returns its id (ids start at 1).
  SpanId Add(std::string name, SpanId parent, std::int64_t start_ns,
             std::int64_t end_ns, std::string detail = "");
  /// Reserves an id for a span whose children are recorded before it ends.
  SpanId Reserve() { return ++last_id_; }
  /// Records a span under an id obtained from Reserve().
  void AddReserved(SpanId id, std::string name, SpanId parent, std::int64_t start_ns,
                   std::int64_t end_ns, std::string detail = "");

  /// Adds `value` to the named aggregate (kept in memory, written at exit).
  void Aggregate(const std::string& name, double value) { aggregates_[name] += value; }

  /// Writes every span and aggregate as Chrome trace-event JSON.
  void WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    SpanId id = 0;
    SpanId parent = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::string detail;
  };
  std::vector<Span> spans_;
  std::map<std::string, double> aggregates_;
  SpanId last_id_ = 0;
};

/// Time spent and calls made in one handler entry point.
struct CallTotals {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;

  void Add(std::int64_t dt) {
    ns += dt;
    ++calls;
  }
  double ms() const { return static_cast<double>(ns) / 1e6; }
};

class TimingHandler final : public hs::EventHandler {
 public:
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(hs::EventKind::kNodeFailure) + 1;

  /// `target` receives every call; set it once the scheduler exists (the
  /// scheduler needs the Simulator, which needs this handler).
  void Attach(hs::EventHandler* target) { target_ = target; }

  void HandleEvent(const hs::Event& event, hs::Simulator& sim) override;
  void OnQuiescent(hs::SimTime now, hs::Simulator& sim) override;

  const CallTotals& kind(hs::EventKind k) const {
    return per_kind_[static_cast<std::size_t>(k)];
  }
  const CallTotals& pass() const { return pass_; }
  /// Time inside the handler (every event kind plus every pass).
  std::int64_t handler_ns() const;

 private:
  hs::EventHandler* target_ = nullptr;
  std::array<CallTotals, kKinds> per_kind_{};
  CallTotals pass_;
};

}  // namespace e2e
