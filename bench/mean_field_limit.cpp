// Fluid-limit (mean-field) dynamics vs stochastic simulation.
//
// [PVV09] (Related Work) analysed the three-state protocol through its
// limit ODE system, proving an O(log 1/ε + log n) parallel-time bound for
// the limit dynamics. This bench integrates the mean-field ODEs compiled
// from the actual transition functions and compares:
//
//   1. the three-state ODE's time to deplete the minority vs ε — the
//      log(1/ε) shape of [PVV09];
//   2. stochastic runs against the ODE trajectory at matching times,
//      for growing n (Kurtz convergence — the simulators and the analytical
//      view agree);
//   3. the AVC mean-field, whose conserved value mean mirrors
//      Invariant 4.3 at the fluid level.
#include <cmath>
#include <iostream>

#include "analysis/mean_field.hpp"
#include "bench_common.hpp"
#include "core/avc.hpp"
#include "harness/report.hpp"
#include "population/configuration.hpp"
#include "population/with_engine.hpp"
#include "protocols/three_state.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace popbean {
namespace {

int run(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, "mean_field_limit.csv");
  bench::print_mode(options);

  ThreeStateProtocol three;
  MeanField three_field{three};

  print_banner(std::cout,
               "three-state limit ODE: time until minority fraction < 1e-4, "
               "vs eps ([PVV09]: O(log 1/eps + ...))");
  TablePrinter ode_table({"eps", "ode_time", "log(1/eps)", "ratio"});
  ode_table.header(std::cout);
  CsvWriter csv(options.csv_path, {"series", "x", "value"});
  for (double eps : {0.5, 0.25, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0005,
                     0.0001}) {
    std::vector<double> x(4, 0.0);
    x[ThreeStateProtocol::kX] = (1.0 + eps) / 2.0;
    x[ThreeStateProtocol::kY] = (1.0 - eps) / 2.0;
    const double t = three_field.integrate_until(
        std::move(x), 0.005, 500.0, [](const std::vector<double>& state) {
          return state[ThreeStateProtocol::kY] < 1e-4;
        });
    const double log_inv_eps = std::log(1.0 / eps);
    ode_table.row(std::cout,
                  {format_value(eps), format_value(t),
                   format_value(log_inv_eps),
                   format_value(t / std::max(log_inv_eps, 1.0))});
    csv.row({"ode_depletion_time", format_value(eps), format_value(t)});
  }

  print_banner(std::cout,
               "stochastic vs fluid limit: |X-fraction(sim) - X-fraction(ODE)|"
               " at parallel time 4, three-state, eps = 0.2");
  const std::vector<std::uint64_t> sizes =
      options.full ? std::vector<std::uint64_t>{100, 1000, 10000, 100000}
                   : std::vector<std::uint64_t>{100, 1000, 10000};
  constexpr double kT = 4.0;
  std::vector<double> x0(4, 0.0);
  x0[ThreeStateProtocol::kX] = 0.6;
  x0[ThreeStateProtocol::kY] = 0.4;
  const std::vector<double> limit =
      three_field.integrate(x0, 0.001, static_cast<std::size_t>(kT / 0.001));
  TablePrinter lln_table({"n", "sim_x_fraction", "ode_x_fraction", "gap"});
  lln_table.header(std::cout);
  for (const std::uint64_t n : sizes) {
    double x_fraction = 0.0;
    constexpr int kReps = 20;
    for (int rep = 0; rep < kReps; ++rep) {
      Counts counts(4, 0);
      counts[ThreeStateProtocol::kX] = n * 6 / 10;
      counts[ThreeStateProtocol::kY] = n - n * 6 / 10;
      Xoshiro256ss rng(options.seed + n, static_cast<std::uint64_t>(rep));
      const auto target = static_cast<std::uint64_t>(kT * static_cast<double>(n));
      x_fraction += with_engine(
          EngineKind::kCount, three, counts, rng, [&](auto& engine) {
            while (engine.steps() < target) engine.step(rng);
            const auto x = engine.counts()[ThreeStateProtocol::kX];
            return static_cast<double>(x) / static_cast<double>(n);
          });
    }
    x_fraction /= kReps;
    const double gap = std::abs(x_fraction - limit[ThreeStateProtocol::kX]);
    lln_table.row(std::cout,
                  {std::to_string(n), format_value(x_fraction),
                   format_value(limit[ThreeStateProtocol::kX]),
                   format_value(gap)});
    csv.row({"lln_gap", format_value(static_cast<double>(n)),
             format_value(gap)});
  }

  print_banner(std::cout, "AVC fluid limit: value mean conserved, minority "
                          "mass depleted (m = 15, eps = 0.05)");
  avc::AvcProtocol avc_protocol(15, 1);
  MeanField avc_field{avc_protocol};
  const Counts avc_counts =
      majority_instance_with_margin(avc_protocol, 1000, 50);
  std::vector<double> x = to_distribution(avc_counts);
  auto value_mean = [&](const std::vector<double>& dist) {
    double total = 0;
    for (State q = 0; q < dist.size(); ++q) {
      total += dist[q] * avc_protocol.value_of(q);
    }
    return total;
  };
  auto negative_mass = [&](const std::vector<double>& dist) {
    double total = 0;
    for (State q = 0; q < dist.size(); ++q) {
      if (avc_protocol.value_of(q) < 0) total += dist[q];
    }
    return total;
  };
  TablePrinter avc_table({"t", "value_mean", "negative_mass"});
  avc_table.header(std::cout);
  const double initial_mean = value_mean(x);
  for (int block = 0; block <= 10; ++block) {
    avc_table.row(std::cout, {format_value(block * 2.0),
                              format_value(value_mean(x)),
                              format_value(negative_mass(x))});
    csv.row({"avc_negative_mass", format_value(block * 2.0),
             format_value(negative_mass(x))});
    x = avc_field.integrate(std::move(x), 0.002, 1000);
  }
  std::cout << "\nvalue mean drift over the integration: "
            << format_value(std::abs(value_mean(x) - initial_mean))
            << " (Invariant 4.3 at the fluid level: should be ~0)\n";
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace popbean

int main(int argc, char** argv) { return popbean::run(argc, argv); }
