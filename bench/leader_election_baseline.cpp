// Leader election baseline (paper §6 discussion).
//
// The paper closes by asking whether the average-and-conquer technique
// extends to leader election. This bench measures the classic
// pairwise-elimination protocol ((L, L) → (L, F)) as the point of
// comparison: its expected parallel time is Θ(n) — the last two leaders
// meet at rate ~2/n² per interaction — i.e. exponentially slower than the
// Θ(log n) information-propagation floor, which is what makes the open
// question interesting. We also run it composed (product construction)
// with AVC, the [AAE08]-style pattern of electing a leader while computing.
#include <iostream>

#include "bench_common.hpp"
#include "core/avc.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "population/run.hpp"
#include "protocols/leader_election.hpp"
#include "protocols/product.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace popbean {
namespace {

int run(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, "leader_election_baseline.csv");
  bench::print_mode(options);

  const std::vector<std::uint64_t> sizes =
      options.full ? std::vector<std::uint64_t>{100, 300, 1000, 3000, 10000}
                   : std::vector<std::uint64_t>{100, 300, 1000, 3000};
  const std::size_t replicates = options.full ? 60 : 20;

  ThreadPool pool(options.threads);
  CsvWriter csv(options.csv_path,
                {"n", "mean_parallel_time", "time_over_n", "replicates"});

  print_banner(std::cout,
               "pairwise-elimination leader election: parallel time vs n "
               "(discussion §6 baseline; expected Θ(n))");
  TablePrinter table({"n", "mean_time", "time/n"});
  table.header(std::cout);

  std::vector<double> ns, times;
  LeaderElectionProtocol protocol;
  for (const std::uint64_t n : sizes) {
    std::vector<double> samples(replicates);
    parallel_for_index(pool, replicates, [&](std::size_t rep) {
      Counts counts(2, 0);
      counts[LeaderElectionProtocol::kLeader] = n;
      Xoshiro256ss rng(options.seed + n, rep);
      samples[rep] = with_engine(
          EngineKind::kCount, protocol, counts, rng, [&](auto& engine) {
            while (protocol.leaders(engine.counts()) > 1) engine.step(rng);
            return engine.parallel_time();
          });
    });
    const Summary summary = summarize(samples);
    const double ratio = summary.mean / static_cast<double>(n);
    table.row(std::cout, {std::to_string(n), format_value(summary.mean),
                          format_value(ratio)});
    csv.row({std::to_string(n), format_value(summary.mean),
             format_value(ratio), std::to_string(replicates)});
    ns.push_back(static_cast<double>(n));
    times.push_back(summary.mean);
  }
  const LinearFit fit = linear_fit(ns, times);
  std::cout << "\nfit time ~ a*n + b: a = " << format_value(fit.slope)
            << ", R^2 = " << format_value(fit.r_squared)
            << " (theory: time/n -> 1; sum over k leaders of n/(k(k-1)))\n";

  // Composition: elect a leader while AVC solves majority, per the product
  // construction — both components finish, and the majority verdict is
  // exactly AVC's.
  print_banner(std::cout, "product composition: leader election x AVC(m=7)");
  const std::uint64_t n = sizes[1];
  const Product composed{LeaderElectionProtocol{}, avc::AvcProtocol{7, 1},
                         ProductOutput::kSecond};
  const MajorityInstance instance = make_instance(n, 0.1, Opinion::B);
  std::size_t correct = 0;
  OnlineStats leader_time;
  for (std::size_t rep = 0; rep < replicates; ++rep) {
    const Counts counts = majority_instance_with_margin(
        composed, instance.n, instance.margin, instance.majority);
    Xoshiro256ss rng(options.seed + 7, rep);
    with_engine(EngineKind::kCount, composed, counts, rng, [&](auto& engine) {
      auto leaders = [&] {
        std::uint64_t total = 0;
        const Counts& c = engine.counts();
        for (State q = 0; q < c.size(); ++q) {
          if (composed.decode(q).first == LeaderElectionProtocol::kLeader) {
            total += c[q];
          }
        }
        return total;
      };
      while (leaders() > 1 || !engine.all_same_output()) engine.step(rng);
      leader_time.add(engine.parallel_time());
      if (engine.dominant_output() == instance.correct_output()) ++correct;
    });
  }
  std::cout << "runs ending with one leader AND a unanimous majority "
               "verdict: " << replicates << "/" << replicates
            << "; verdict correct in " << correct << "/" << replicates
            << "; mean parallel time " << format_value(leader_time.mean())
            << " (leader election dominates: Θ(n) vs AVC's polylog)\n";
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace popbean

int main(int argc, char** argv) { return popbean::run(argc, argv); }
