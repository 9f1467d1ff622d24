// Phase structure of a single AVC run (the mechanism behind Theorem 4.1).
//
// The paper's proof proceeds in phases (§4):
//   * Claim A.2 — the extremal weight on each side halves every
//     O(log n) parallel time, so after O(log m log n) time only values in
//     {−1, 0, +1} remain;
//   * Claim A.3 — no node hits weight 0 during that halving window, w.h.p.;
//   * Claims 4.5/A.4 — a four-state-like endgame then flips the remaining
//     minority stragglers in O(log n / (εm)) time.
//
// This bench traces those quantities along one (seeded) run and prints the
// weight-halving timeline: the parallel time at which each side's maximum
// weight first dropped below m/2, m/4, … — the paper predicts roughly
// equal spacing of O(log n) between consecutive halvings.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/avc.hpp"
#include "core/avc_observables.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "population/trace.hpp"
#include "util/csv.hpp"

namespace popbean {
namespace {

int run(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, "phase_dynamics.csv");
  bench::print_mode(options);

  const std::uint64_t n = options.full ? 100001 : 10001;
  const int m = options.full ? 1023 : 255;
  avc::AvcProtocol protocol(m, 1);
  const MajorityInstance instance = make_instance(n, 0.001);
  const Counts initial = majority_instance_with_margin(
      protocol, instance.n, instance.margin, instance.majority);

  TraceRecorder recorder({avc::max_positive_weight(protocol),
                          avc::max_negative_weight(protocol),
                          avc::weak_nodes(protocol),
                          avc::strictly_positive_nodes(protocol),
                          avc::strictly_negative_nodes(protocol),
                          avc::total_value(protocol)});
  Xoshiro256ss rng(options.seed);
  const RunResult result = with_engine(
      EngineKind::kCount, protocol, initial, rng, [&](auto& engine) {
        return recorder.record(engine, rng, n / 4, 400'000'000'000ULL);
      });

  print_banner(std::cout, "AVC phase dynamics (n = " + std::to_string(n) +
                              ", m = " + std::to_string(m) + ", eps = " +
                              format_value(instance.epsilon()) + ")");
  TablePrinter table({"parallel_t", "max_w(+)", "max_w(-)", "weak", "#pos",
                      "#neg", "sum"});
  table.header(std::cout);
  CsvWriter csv(options.csv_path,
                {"parallel_time", "max_pos_weight", "max_neg_weight",
                 "weak_nodes", "positive_nodes", "negative_nodes",
                 "total_value"});
  // Print a decimated view (the CSV gets everything).
  const auto& points = recorder.points();
  const std::size_t print_stride = std::max<std::size_t>(1, points.size() / 24);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const TracePoint& p = points[i];
    csv.row({format_value(p.parallel_time), format_value(p.values[0]),
             format_value(p.values[1]), format_value(p.values[2]),
             format_value(p.values[3]), format_value(p.values[4]),
             format_value(p.values[5])});
    if (i % print_stride != 0 && i + 1 != points.size()) continue;
    table.row(std::cout,
              {format_value(p.parallel_time), format_value(p.values[0]),
               format_value(p.values[1]), format_value(p.values[2]),
               format_value(p.values[3]), format_value(p.values[4]),
               format_value(p.values[5])});
  }

  // Halving timeline (Claim A.2): first time each side's max weight fell to
  // <= m / 2^k.
  print_banner(std::cout, "weight-halving timeline (Claim A.2)");
  TablePrinter halving({"threshold", "t_first(+)", "t_first(-)"});
  halving.header(std::cout);
  for (double threshold = m / 2.0; threshold >= 1.0; threshold /= 2.0) {
    double t_pos = -1.0, t_neg = -1.0;
    for (const TracePoint& p : points) {
      if (t_pos < 0 && p.values[0] <= threshold) t_pos = p.parallel_time;
      if (t_neg < 0 && p.values[1] <= threshold) t_neg = p.parallel_time;
    }
    halving.row(std::cout,
                {format_value(threshold),
                 t_pos < 0 ? "never" : format_value(t_pos),
                 t_neg < 0 ? "never" : format_value(t_neg)});
  }

  std::cout << "\nrun converged: " << (result.converged() ? "yes" : "NO")
            << ", decided " << (result.decided == 1 ? "A" : "B")
            << " at parallel time " << format_value(result.parallel_time)
            << "; sum column constant = Invariant 4.3.\n";
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace popbean

int main(int argc, char** argv) { return popbean::run(argc, argv); }
