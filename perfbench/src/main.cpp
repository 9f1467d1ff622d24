// perfbench: end-to-end benchmark of popbean's paper artifacts and its TCP
// serve path.
//
//   perfbench --workload fig3|thm41|serve_tcp --seed N --seconds S --trace 0|1
//
// Prints a human-readable report, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones (measured untraced); with --trace 1 they are the
// per-layer ones of the traced run. Exits 1 when an output check fails and
// 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fig3|thm41|serve_tcp --seed N "
               "--seconds S --trace 0|1\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  options.process_start = Clock::now();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

// The metrics BENCHMARK.json declares, in its order, with their units.
std::vector<Metric> end_to_end_schema() {
  return {{"wall_s", "s"},
          {"setup_s", "s"},
          {"peak_rss_mb", "MB"},
          {"p50_ms", "ms"}};
}

std::vector<Metric> per_layer_schema() {
  std::vector<Metric> schema = {
      {"harness.parallel_efficiency", "ratio"},
      {"harness.straggler_ratio", "ratio"},
      {"engine.count.busy_s", "s"},
      {"engine.count.interactions", "count"},
      {"engine.count.ns_per_interaction", "ns"},
      {"engine.count.productive_ratio", "ratio"},
      {"engine.skip.busy_s", "s"},
      {"engine.skip.steps", "count"},
      {"engine.skip.ns_per_step", "ns"},
      {"engine.skip.nulls_per_step", "ratio"},
      {"engine.skip.construct_ms", "ms"},
      {"engine.cells.skip", "count"},
      {"engine.cells.count", "count"},
      {"engine.interactions_total", "count"},
      {"delta.avc_nstate.ns", "ns"},
      {"delta.avc_s100.ns", "ns"},
      {"delta.four_state.ns", "ns"},
      {"delta.three_state.ns", "ns"},
      {"delta.zoo_doubling.ns", "ns"},
      {"loadgen.late_ms.p99", "ms"},
  };
  const std::vector<Metric> per_rate = {
      {"net.ingress_us.p50", "us"},   {"net.ingress_us.p99", "us"},
      {"router.submit_us.p50", "us"}, {"router.submit_us.p99", "us"},
      {"service.queue_ms.p50", "ms"}, {"service.queue_ms.p99", "ms"},
      {"service.run_ms.p50", "ms"},   {"service.run_ms.p99", "ms"},
      {"net.egress_us.p50", "us"},    {"net.egress_us.p99", "us"},
      {"codec.parse_us", "us"},       {"codec.encode_us", "us"},
      {"service.busy_frac", "ratio"}, {"service.sim_share", "ratio"},
      {"service.outcome.done", "ratio"},
      {"service.outcome.truncated", "ratio"},
      {"service.outcome.timeout", "ratio"},
      {"service.outcome.failed", "ratio"},
      {"service.outcome.overloaded", "ratio"},
      {"service.degraded_frac", "ratio"},
      {"vote.replicas_per_job", "count"},
      {"net.bytes_per_job", "B"},
  };
  for (const char* rate : {"low", "high"}) {
    for (const Metric& m : per_rate) {
      schema.push_back({m.name + "." + rate, m.unit});
    }
  }
  schema.push_back({"obs.trace_overhead_pct", "%"});
  schema.push_back({"obs.trace_events", "count"});
  schema.push_back({"obs.trace_dropped", "count"});
  return schema;
}

// Lays `measured` out in schema order. Every workload reports every
// metric: a per-layer metric whose layer is off the workload's path reads
// 0, but an end-to-end metric must be measured. A metric the schema does
// not declare, or declares with another unit, is a bug here.
std::vector<Metric> conform(std::vector<Metric> schema,
                            const std::vector<Metric>& measured,
                            bool require_all) {
  std::size_t found = 0;
  for (const Metric& m : measured) {
    const auto it =
        std::find_if(schema.begin(), schema.end(),
                     [&m](const Metric& s) { return s.name == m.name; });
    if (it == schema.end() || it->unit != m.unit) {
      throw std::logic_error("metric " + m.name + " [" + m.unit +
                             "] is not declared");
    }
    it->value = m.value;
    ++found;
  }
  if (require_all && found != schema.size()) {
    throw std::logic_error("a declared end-to-end metric was not measured");
  }
  return schema;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void report(const Options& options, const Result& result) {
  std::cout << "perfbench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n";
  for (const std::string& line : result.table) std::cout << "  " << line << "\n";
  const auto& metrics = options.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  Result result;
  try {
    if (options.workload == "fig3") {
      result = run_fig3(options);
    } else if (options.workload == "thm41") {
      result = run_thm41(options);
    } else if (options.workload == "serve_tcp") {
      result = run_serve_tcp(options);
    } else {
      usage("unknown workload " + options.workload);
    }
    if (options.trace) {
      result.per_layer = conform(per_layer_schema(), result.per_layer, false);
    } else {
      result.end_to_end =
          conform(end_to_end_schema(), result.end_to_end, true);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
  report(options, result);
  return result.correct ? 0 : 1;
}
