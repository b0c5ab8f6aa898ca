// perfbench: runs one benchmark workload and prints its report as one JSON
// line (the last line of standard output). run.py builds this program,
// calls it and turns the report into the benchmark's result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expected FILE] [--trace-out FILE]
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "service/json_value.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

using perfbench::Metrics;
using rpcg::json_quote;
using rpcg::service::JsonValue;

std::string metrics_json(const Metrics& metrics, bool with_units) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics.items()) {
    out += first ? "" : ", ";
    first = false;
    out += json_quote(name) + ": ";
    if (with_units) {
      out += "{\"value\": " + perfbench::exact(m.value) +
             ", \"unit\": " + json_quote(m.unit) + "}";
    } else {
      out += perfbench::exact(m.value);
    }
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--expected FILE] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string expected_path;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--expected") {
        expected_path = value;
      } else if (key == "--trace-out") {
        trace_out = value;
      } else {
        return usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (opt.workload.empty()) return usage("--workload is required");

  try {
    JsonValue expected;
    if (!expected_path.empty()) {
      std::ifstream in(expected_path);
      if (!in) return usage(("cannot read " + expected_path).c_str());
      std::stringstream text;
      text << in.rdbuf();
      expected = JsonValue::parse(text.str());
      if (const JsonValue* w = expected.find(opt.workload)) {
        opt.expected = w->find(std::to_string(opt.seed));
      }
    }

    perfbench::Tracer tracer(opt.trace);
    const perfbench::RunResult r = perfbench::run_workload(opt, tracer);
    if (!trace_out.empty() && opt.trace && !tracer.write_chrome(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }

    std::string walls = "[";
    for (std::size_t i = 0; i < r.walls_s.size(); ++i)
      walls += (i ? ", " : "") + perfbench::exact(r.walls_s[i]);
    walls += "]";
    std::string failures = "[";
    for (std::size_t i = 0; i < r.failures.size(); ++i)
      failures += (i ? ", " : "") + json_quote(r.failures[i]);
    failures += "]";
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
        "\"attempted\": %ld, \"failed\": %ld, \"failures\": %s, "
        "\"golden\": %s, "
        "\"build\": {\"compiler\": %s, \"build_type\": %s}, "
        "\"end_to_end\": %s, \"per_layer\": %s, \"deterministic\": %s, "
        "\"shares\": %s, \"walls_s\": %s}\n",
        json_quote(opt.workload).c_str(),
        static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
        r.attempted, r.failed, failures.c_str(), r.golden ? "true" : "false",
        json_quote(PERFBENCH_COMPILER).c_str(),
        json_quote(PERFBENCH_BUILD_TYPE).c_str(),
        metrics_json(r.end_to_end, true).c_str(),
        metrics_json(r.per_layer, true).c_str(),
        metrics_json(r.deterministic, false).c_str(),
        metrics_json(r.shares, false).c_str(), walls.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
