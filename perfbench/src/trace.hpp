// Spans, counters and named metrics of the benchmark harness.
//
// Spans are recorded from the harness's own files around calls into the
// library's public functions; nothing inside the library is instrumented.
// They are kept in memory and written once, at exit, as a Chrome
// trace-event file (chrome://tracing, Perfetto) of B/E pairs; run.py checks
// that the pairs nest on every lane.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

/// A metric value with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order (the order the result line prints them).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] double at(const std::string& name) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Metric>>& items()
      const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records one span [start_s, end_s] on lane `tid`. Thread-safe. Spans on
  /// one lane must nest; the harness gives every concurrent job its own.
  void span(const std::string& name, const std::string& layer, double start_s,
            double end_s, int tid = 0);

  /// Scoped span on lane 0 around the enclosing block (no-op when off).
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string layer)
        : tracer_(tracer),
          name_(std::move(name)),
          layer_(std::move(layer)),
          start_(tracer.enabled() ? now_s() : 0.0) {}
    ~Scope() {
      if (tracer_.enabled()) tracer_.span(name_, layer_, start_, now_s());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::string name_;
    std::string layer_;
    double start_;
  };

  /// Writes the Chrome trace-event JSON; false when the file cannot be
  /// written.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string layer;
    double start_s;
    double end_s;
    int tid;
  };

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
};

// ---- small sample statistics ---------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Quantile p in (0, 1) by the "exclusive" method of Python's
/// statistics.quantiles: position p * (n + 1), clamped to the sample range,
/// linearly interpolated.
[[nodiscard]] double quantile(std::vector<double> v, double p);

/// Shortest decimal text that reads back as exactly `v`.
[[nodiscard]] std::string exact(double v);

}  // namespace perfbench
