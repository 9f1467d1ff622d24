// Robustness study: exact-majority protocols under transient state
// corruption (not a paper figure — the paper proves exactness in a
// fault-free world; this bench measures what the proof's premise is worth
// when that world degrades).
//
// For AVC, the four-state protocol, and the three-state approximate
// baseline at n = 10^4, sweeps the per-interaction corruption rate and
// reports, per rate: accuracy (fraction of replicates converging to the
// true majority), the full RunStatus breakdown, and the distribution of
// first-invariant-violation parallel times — the moment each run lost the
// conservation law its exactness rests on (Invariant 4.3 for AVC, the
// #A − #B difference for four-state). The three-state protocol conserves
// nothing beyond the agent count, which corruption cannot break: its
// monitor stays silent while its accuracy was imperfect to begin with —
// the structural contrast the comparison is after.
//
// Expected shape: every protocol has accuracy 1.0 at rate 0 (exact ones by
// Theorem 4.1 / [DV12], three-state because ε here is far above 1/n); at
// positive rates the exact protocols' invariants break within O(1/(rate·n))
// parallel time and accuracy degrades with the corruption budget, AVC
// holding up no worse than four-state at equal rates.
//
// Output: table on stdout, CSV series, and a JSON report (--json=PATH)
// carrying the per-rate accuracy curves and violation-time distributions.
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "core/avc.hpp"
#include "harness/fault_sweep.hpp"
#include "harness/report.hpp"
#include "protocols/four_state.hpp"
#include "protocols/three_state.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "verify/builtin_invariants.hpp"

namespace popbean {
namespace {

struct ProtocolSweep {
  std::string label;
  std::vector<FaultSweepPoint> points;
};

template <ProtocolLike P>
ProtocolSweep sweep_protocol(ThreadPool& pool, const P& protocol,
                             const std::string& label,
                             const verify::LinearInvariant& invariant,
                             const std::vector<double>& rates,
                             const FaultSweepConfig& config) {
  ProtocolSweep sweep{
      label, run_fault_sweep_recoverable(
                 pool, protocol, invariant, label, rates, config,
                 FaultSweepRecovery{},
                 [](double rate) { return faults::TransientCorruption(rate); },
                 [] { return faults::UniformSchedule{}; })
                 .points};
  std::cerr << "done " << label << "\n";
  return sweep;
}

int run(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_options(
      argc, argv, "fault_resilience.csv", {"json", "n", "replicates"});
  bench::print_mode(options);
  CliArgs args(argc, argv);
  const std::string json_path =
      args.get_string("json", "fault_resilience.json");

  FaultSweepConfig config;
  config.n = static_cast<std::uint64_t>(args.get_int("n", 10'000));
  config.epsilon = 0.02;
  config.replicates = static_cast<std::size_t>(
      args.get_int("replicates", options.full ? 50 : 15));
  config.seed = options.seed;
  // 2000 parallel time units: far past every protocol's fault-free
  // convergence at this ε, so step-limit outcomes indicate fault-induced
  // stalling rather than an undersized budget.
  config.max_interactions = 2000 * config.n;

  const std::vector<double> rates = {0.0, 1e-5, 1e-4, 1e-3};

  ThreadPool pool(options.threads);
  std::vector<ProtocolSweep> sweeps;

  {
    const avc::AvcProtocol protocol(3, 1);
    sweeps.push_back(sweep_protocol(pool, protocol, "AVC(m=3,d=1)",
                                    verify::avc_sum_invariant(protocol), rates,
                                    config));
  }
  {
    const FourStateProtocol protocol;
    sweeps.push_back(sweep_protocol(pool, protocol, "4-state",
                                    verify::four_state_difference_invariant(),
                                    rates, config));
  }
  {
    const ThreeStateProtocol protocol;
    sweeps.push_back(sweep_protocol(pool, protocol, "3-state",
                                    verify::agent_count_invariant(protocol),
                                    rates, config));
  }

  print_banner(std::cout, "accuracy under transient corruption, n = " +
                              std::to_string(config.n));
  TablePrinter accuracy({"rate", "AVC(m=3,d=1)", "4-state", "3-state"});
  accuracy.header(std::cout);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    accuracy.row(std::cout,
                 {format_value(rates[i]),
                  format_value(sweeps[0].points[i].summary.accuracy()),
                  format_value(sweeps[1].points[i].summary.accuracy()),
                  format_value(sweeps[2].points[i].summary.accuracy())});
  }

  print_banner(std::cout,
               "median parallel time to first invariant violation "
               "(- = never violated)");
  TablePrinter violation({"rate", "AVC(m=3,d=1)", "4-state", "3-state"});
  violation.header(std::cout);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    auto cell = [&](const ProtocolSweep& sweep) -> std::string {
      const FaultSweepPoint& point = sweep.points[i];
      return point.violated == 0 ? "-"
                                 : format_value(point.violation_time.median);
    };
    violation.row(std::cout,
                  {format_value(rates[i]), cell(sweeps[0]), cell(sweeps[1]),
                   cell(sweeps[2])});
  }

  CsvWriter csv(options.csv_path,
                {"protocol", "rate", "accuracy", "error_fraction", "converged",
                 "step_limit", "absorbing", "corruptions",
                 "violated_replicates", "median_violation_time"});
  for (const ProtocolSweep& sweep : sweeps) {
    for (const FaultSweepPoint& point : sweep.points) {
      csv.row({sweep.label, format_value(point.rate),
               format_value(point.summary.accuracy()),
               format_value(point.summary.error_fraction()),
               std::to_string(point.summary.converged),
               std::to_string(point.summary.step_limit),
               std::to_string(point.summary.absorbing),
               std::to_string(point.counters.corruptions),
               std::to_string(point.violated),
               format_value(point.violation_time.median)});
    }
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";

  std::ofstream json_out(json_path);
  if (!json_out) {
    std::cerr << "cannot open " << json_path << " for writing\n";
    return 1;
  }
  JsonWriter json(json_out);
  json.begin_object();
  json.kv("bench", "fault_resilience");
  json.kv("fault_model", "transient_corruption");
  json.kv("schedule", "uniform");
  json.key("protocols");
  json.begin_array();
  for (const ProtocolSweep& sweep : sweeps) {
    write_fault_sweep_json(json, sweep.label, config, sweep.points);
  }
  json.end_array();
  json.end_object();
  json_out << "\n";
  std::cout << "JSON written to " << json_path << "\n";

  // Shape self-check for EXPERIMENTS.md: exact protocols are perfect at
  // rate 0 and their invariants measurably break at every positive rate.
  bool ok = true;
  for (std::size_t s = 0; s < 2; ++s) {
    ok = ok && sweeps[s].points[0].summary.accuracy() == 1.0;
    for (std::size_t i = 1; i < rates.size(); ++i) {
      ok = ok && sweeps[s].points[i].violated > 0;
    }
  }
  std::cout << "shape check: rate-0 accuracy 1.0 and rate>0 violations on "
               "both exact protocols: "
            << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace popbean

int main(int argc, char** argv) { return popbean::run(argc, argv); }
