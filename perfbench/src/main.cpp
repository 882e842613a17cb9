// dring_pipeline_bench: the campaign pipeline benchmark.
//
//   dring_pipeline_bench --workload mixed_grid|engine_grid|serve_mix
//       --seed N --seconds S --trace 0|1 --bench-dir DIR --work-dir DIR
//       --report-tool PATH [--scale full|tiny] [--corrupt-store]
//
// Prints progress and the traced table to stderr and, as the last line of
// stdout, one JSON object {"correct","attempted","failed","metrics"}.
// Normally launched by run.py, which builds it first.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "util/cli.hpp"

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_line(const bench::Result& r) {
  std::string out = "{\"correct\":";
  out += r.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const bench::Metric& m = r.metrics[i];
    out += (i ? ",\"" : "\"") + m.name + "\":{\"value\":" + number(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const dring::util::Cli cli(argc, argv);
  bench::Options o;
  o.workload = cli.get("workload", "");
  o.seed = std::stoull(cli.get("seed", "0"), nullptr, 0);
  o.seconds = cli.get_double("seconds", 10);
  o.trace = cli.get("trace", "0") == "1";
  o.scale = cli.get("scale", "full");
  o.bench_dir = cli.get("bench-dir", "");
  o.work_dir = cli.get("work-dir", "");
  o.report_tool = cli.get("report-tool", "");
  o.corrupt_store = cli.get_bool("corrupt-store", false);

  const bench::Workload* w = bench::find_workload(o.workload);
  if (!w || o.bench_dir.empty() || o.work_dir.empty() ||
      o.report_tool.empty() || (o.scale != "full" && o.scale != "tiny") ||
      !(o.seconds > 0)) {
    std::cerr << "usage: dring_pipeline_bench --workload "
                 "mixed_grid|engine_grid|serve_mix --seed N --seconds S "
                 "--trace 0|1 --bench-dir DIR --work-dir DIR --report-tool "
                 "PATH [--scale full|tiny] [--corrupt-store]\n";
    return 2;
  }
  try {
    const bench::Result r =
        o.trace ? bench::run_traced(*w, o) : bench::run_timed(*w, o);
    std::cout << result_line(r) << std::endl;
  } catch (const std::exception& e) {
    bench::note(std::string("error: ") + e.what());
    return 1;
  }
  return 0;
}
