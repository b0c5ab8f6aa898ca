// Drives the harness's statistics and trace writer from stdin, for
// test_summary.py, which builds it with src/trace.cpp.
//
//   harness_main quantile   lines "p v1 ... vn" -> "quantile(v, p) median(v)"
//   harness_main trace OUT  lines "name start_s end_s lane" -> Chrome trace
//                           file OUT, as Tracer::write_chrome writes it
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "trace.hpp"

namespace {

int quantiles() {
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    double p = 0.0;
    if (!(in >> p)) continue;
    std::vector<double> values;
    for (double v = 0.0; in >> v;) values.push_back(v);
    std::printf("%.17g %.17g\n", perfbench::quantile(values, p),
                perfbench::median(values));
  }
  return 0;
}

int trace(const std::string& out) {
  perfbench::Tracer tracer(true);
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int lane = 0;
  while (std::cin >> name >> start_s >> end_s >> lane)
    tracer.span(name, "test", start_s, end_s, lane);
  return tracer.write_chrome(out) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "quantile") return quantiles();
  if (mode == "trace" && argc > 2) return trace(argv[2]);
  std::fprintf(stderr, "usage: harness_main quantile | trace OUT\n");
  return 2;
}
