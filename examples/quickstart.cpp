// Quickstart: solve exact majority with AVC in a dozen lines.
//
//   ./quickstart [--n=100001] [--margin=1] [--states=1024] [--seed=42]
//
// Builds an AVC protocol from a state budget, runs one population to
// convergence on the fastest suitable engine, and prints what happened.
#include <iostream>

#include "core/avc.hpp"
#include "core/avc_params.hpp"
#include "harness/experiment.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace popbean;
  const CliArgs args(argc, argv);
  args.check_known({"n", "margin", "states", "seed"});

  const auto n = static_cast<std::uint64_t>(args.get_int("n", 100001));
  const auto margin = static_cast<std::uint64_t>(args.get_int("margin", 1));
  const auto budget = args.get_int("states", 1024);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  // 1. Pick protocol parameters for the memory budget (s = m + 2d + 1).
  const avc::AvcParams params = avc::from_state_budget(budget);
  avc::AvcProtocol protocol(params.m, params.d);
  std::cout << "AVC protocol: m = " << protocol.m() << ", d = " << protocol.d()
            << ", s = " << protocol.num_states() << " states ("
            << "inputs " << protocol.state_name(protocol.initial_state(Opinion::A))
            << " / " << protocol.state_name(protocol.initial_state(Opinion::B))
            << ")\n";

  // 2. Describe the majority instance: opinion A leads by `margin` agents.
  const MajorityInstance instance{n, margin, Opinion::A};
  std::cout << "population: n = " << n << ", margin = " << margin
            << " (eps = " << instance.epsilon() << ")\n";

  // 3. Run to convergence. kAuto picks the null-skipping engine for small
  //    state spaces and the count-tree engine for large ones.
  const RunResult result = run_majority_once(
      protocol, instance, EngineKind::kAuto, seed, /*stream=*/0,
      /*max_interactions=*/1'000'000'000'000ULL);

  if (!result.converged()) {
    std::cout << "did not converge within the interaction budget\n";
    return 1;
  }
  std::cout << "decided: " << (result.decided == 1 ? "A" : "B")
            << " (correct answer: A)\n"
            << "parallel time: " << result.parallel_time << " ("
            << result.interactions << " pairwise interactions)\n";
  std::cout << "\nAVC is exact: rerun with any --seed; it never decides B.\n";
  return 0;
}
