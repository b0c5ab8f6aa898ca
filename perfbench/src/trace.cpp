#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [key, m] : items_) {
    if (key == name) {
      m = Metric{value, unit};
      return;
    }
  }
  items_.emplace_back(name, Metric{value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const auto& [key, m] : items_)
    if (key == name) return &m;
  return nullptr;
}

double Metrics::at(const std::string& name) const {
  const Metric* m = find(name);
  if (m == nullptr) throw std::logic_error("no metric " + name);
  return m->value;
}

void Tracer::span(const std::string& name, const std::string& layer,
                  double start_s, double end_s, int tid) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{name, layer, start_s, std::max(start_s, end_s), tid});
}

namespace {

void write_event(std::FILE* f, bool& first, const char* ph,
                 const std::string& name, const std::string& layer, double ts,
                 int tid) {
  std::fprintf(f,
               "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", "
               "\"ts\": %.3f, \"pid\": 1, \"tid\": %d}",
               first ? "" : ",", name.c_str(), layer.c_str(), ph, ts * 1e6,
               tid);
  first = false;
}

}  // namespace

bool Tracer::write_chrome(const std::string& path) const {
  std::vector<Event> events;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    events = events_;
  }
  // Parents before children: by lane, then start, then longest first.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_s != b.start_s) return a.start_s < b.start_s;
    return a.end_s > b.end_s;
  });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool first = true;
  std::vector<Event> open;  // stack of the current lane's open spans
  auto close_until = [&](double t, int tid) {
    while (!open.empty() && (open.back().tid != tid || open.back().end_s <= t)) {
      const Event& e = open.back();
      write_event(f, first, "E", e.name, e.layer, e.end_s, e.tid);
      open.pop_back();
    }
  };
  // Spans are written as recorded: one that outlives its parent closes after
  // it, so the file then holds crossed pairs that the trace check rejects.
  for (const Event& e : events) {
    close_until(e.start_s, e.tid);
    write_event(f, first, "B", e.name, e.layer, e.start_s, e.tid);
    open.push_back(e);
  }
  close_until(INFINITY, -1);
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double h = std::clamp(p * (n + 1.0), 1.0, n);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const double frac = h - static_cast<double>(lo);
  if (lo >= v.size()) return v.back();
  return v[lo - 1] + frac * (v[lo] - v[lo - 1]);
}

std::string exact(double v) {
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace perfbench
