#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace e2e {

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

Tracer::SpanId Tracer::Add(std::string name, SpanId parent, std::int64_t start_ns,
                           std::int64_t end_ns, std::string detail) {
  const SpanId id = Reserve();
  AddReserved(id, std::move(name), parent, start_ns, end_ns, std::move(detail));
  return id;
}

void Tracer::AddReserved(SpanId id, std::string name, SpanId parent,
                         std::int64_t start_ns, std::int64_t end_ns,
                         std::string detail) {
  spans_.push_back({std::move(name), id, parent, start_ns, end_ns, std::move(detail)});
}

void Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << (first ? "" : ",") << "\n{\"name\":\"" << JsonEscape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"detail\":\""
        << JsonEscape(s.detail) << "\"}}";
    first = false;
  }
  out << "\n],\"otherData\":{";
  first = true;
  for (const auto& [name, value] : aggregates_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out << (first ? "" : ",") << "\n\"" << JsonEscape(name) << "\":" << buf;
    first = false;
  }
  out << "\n}}\n";
  if (!out) throw std::runtime_error("write failed: " + path);
}

void TimingHandler::HandleEvent(const hs::Event& event, hs::Simulator& sim) {
  const std::int64_t t0 = NowNs();
  target_->HandleEvent(event, sim);
  per_kind_.at(static_cast<std::size_t>(event.kind)).Add(NowNs() - t0);
}

void TimingHandler::OnQuiescent(hs::SimTime now, hs::Simulator& sim) {
  const std::int64_t t0 = NowNs();
  target_->OnQuiescent(now, sim);
  pass_.Add(NowNs() - t0);
}

std::int64_t TimingHandler::handler_ns() const {
  std::int64_t total = pass_.ns;
  for (const CallTotals& k : per_kind_) total += k.ns;
  return total;
}

}  // namespace e2e
