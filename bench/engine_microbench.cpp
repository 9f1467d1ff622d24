// Self-timed microbenchmarks of the three simulation engines: raw
// interactions/second (agent, count) and productive reactions/second
// (skip), across protocols and state-space sizes, plus the transition
// function in isolation. These justify the engine choices documented in
// DESIGN.md: agent for graphs, count for huge s, skip for small s at tiny ε.
// The count/zoo_* and apply/zoo_* pairs measure the programmatic-δ dispatch
// of a zoo Runtime against its materialized (tabulated) counterpart — the
// cost of computing transitions on the fly instead of one table lookup.
//
// Each case also runs with an obs::EngineProbe attached and reports the
// relative slowdown (`probe_overhead_pct`, best probed repeat against best
// plain repeat) — the measured cost of the DESIGN.md §8 instrumentation
// hooks. With -DPOPBEAN_OBS=OFF the hooks compile away and the overhead
// column should read ~0.
//
// Results go to stdout (table) and to a machine-readable JSON report
// (default BENCH_engines.json) consumed by the CI perf-smoke job. The job
// only validates shape — rates are recorded as a baseline artifact, never
// gated, because shared runners make thresholds flaky.
//
// Flags:
//   --n=N           population size (default 100000)
//   --batch=B       timed interactions per repeat, agent/count (default 2e6)
//   --skip-batch=B  timed productive reactions per repeat, skip (default 2e5)
//   --repeats=R     timed repeats per case, fresh engine each (default 5)
//   --seed=S        RNG seed (default 1)
//   --json=PATH     JSON report path ("" disables; default BENCH_engines.json)
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/avc.hpp"
#include "core/avc_params.hpp"
#include "harness/report.hpp"
#include "obs/probe.hpp"
#include "population/agent_engine.hpp"
#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/skip_engine.hpp"
#include "protocols/four_state.hpp"
#include "util/check.hpp"
#include "zoo/doubling.hpp"
#include "zoo/materialize.hpp"
#include "zoo/runtime.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace popbean {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BenchConfig {
  std::uint64_t n = 100000;
  std::uint64_t batch = 2'000'000;
  std::uint64_t skip_batch = 200'000;
  std::size_t repeats = 5;
  std::uint64_t seed = 1;
};

// One benchmark case, fully aggregated over its repeats. `units_per_sec` is
// interactions/s for agent/count and productive reactions/s for skip;
// `interactions_per_sec` is the same clock for agent/count but counts the
// skipped-over null interactions for skip.
struct CaseResult {
  std::string name;
  std::string engine;
  std::string protocol;
  std::uint64_t units = 0;  // timed work units per repeat
  Summary units_per_sec;    // over repeats, probe detached
  double interactions_per_sec = 0.0;
  double interactions_per_unit = 1.0;
  double probe_overhead_pct = 0.0;
  std::uint64_t probe_interactions = 0;  // sanity anchor (last probed repeat)
};

// Times `batch` steps of a fresh engine; returns elapsed seconds and
// accumulates the engine's interaction clock into `interactions`.
template <template <typename> class Engine, typename P>
double time_batch(const P& protocol, const Counts& counts,
                  const BenchConfig& config, std::uint64_t stream,
                  obs::EngineProbe* probe, std::uint64_t& interactions) {
  Engine<P> engine(protocol, counts);
  if (probe != nullptr) engine.attach_probe(probe);
  Xoshiro256ss rng(config.seed, stream);
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < config.batch; ++i) engine.step(rng);
  const double elapsed = seconds_since(start);
  interactions += engine.steps();
  return elapsed;
}

// Skip engine: each step is one *productive* reaction and may advance the
// interaction clock by millions, so the population converges mid-batch.
// Rebuild outside the timed region and keep going until the productive
// budget is spent.
template <typename P>
double time_skip_batch(const P& protocol, const Counts& counts,
                       const BenchConfig& config, std::uint64_t stream,
                       obs::EngineProbe* probe, std::uint64_t& interactions) {
  SkipEngine<P> engine(protocol, counts);
  if (probe != nullptr) engine.attach_probe(probe);
  Xoshiro256ss rng(config.seed, stream);
  double elapsed = 0.0;
  std::uint64_t productive = 0;
  while (productive < config.skip_batch) {
    const auto start = Clock::now();
    while (productive < config.skip_batch && !engine.absorbing() &&
           !engine.all_same_output()) {
      engine.step(rng);
      ++productive;
    }
    elapsed += seconds_since(start);
    if (productive < config.skip_batch) {
      interactions += engine.steps();
      engine = SkipEngine<P>(protocol, counts);
      if (probe != nullptr) engine.attach_probe(probe);
    }
  }
  interactions += engine.steps();
  return elapsed;
}

// Runs one case: `repeats` timed batches probe-detached (the reported
// rate), then the same batches probe-attached (the overhead estimate). The
// overhead compares the best repeat of each side, the rule
// scripts/ci_bench_regress.sh uses for rates: a descheduled repeat inflates
// a sum (and could make the probed side look faster) but barely moves the
// best.
template <typename TimeBatch>
CaseResult run_case(std::string name, std::string engine_name,
                    std::string protocol_name, std::uint64_t units,
                    const BenchConfig& config, const TimeBatch& time_one) {
  CaseResult result;
  result.name = std::move(name);
  result.engine = std::move(engine_name);
  result.protocol = std::move(protocol_name);
  result.units = units;

  std::vector<double> rates;
  std::uint64_t interactions = 0;
  double plain_seconds = 0.0;
  for (std::size_t r = 0; r < config.repeats; ++r) {
    std::uint64_t batch_interactions = 0;
    const double elapsed = time_one(r, nullptr, batch_interactions);
    interactions += batch_interactions;
    plain_seconds += elapsed;
    rates.push_back(static_cast<double>(units) / elapsed);
  }
  result.units_per_sec = summarize(rates);
  result.interactions_per_unit =
      static_cast<double>(interactions) /
      static_cast<double>(units * config.repeats);
  result.interactions_per_sec =
      static_cast<double>(interactions) / plain_seconds;

  obs::EngineProbe probe;
  double best_probed = 0.0;
  for (std::size_t r = 0; r < config.repeats; ++r) {
    std::uint64_t ignored = 0;
    const double elapsed = time_one(r, &probe, ignored);
    if (r == 0 || elapsed < best_probed) best_probed = elapsed;
  }
  const double best_plain = static_cast<double>(units) /
                            result.units_per_sec.max;
  result.probe_overhead_pct = (best_probed - best_plain) / best_plain * 100.0;
#if POPBEAN_OBS_ENABLED
  result.probe_interactions = probe.interactions;
#endif
  return result;
}

template <template <typename> class Engine, typename P>
CaseResult run_engine_case(std::string name, std::string engine_name,
                           std::string protocol_name, const P& protocol,
                           const BenchConfig& config) {
  const Counts counts =
      majority_instance_with_margin(protocol, config.n, 2);
  return run_case(
      std::move(name), std::move(engine_name), std::move(protocol_name),
      config.batch, config,
      [&](std::size_t repeat, obs::EngineProbe* probe,
          std::uint64_t& interactions) {
        return time_batch<Engine>(protocol, counts, config, repeat, probe,
                                  interactions);
      });
}

template <typename P>
CaseResult run_skip_case(std::string name, std::string protocol_name,
                         const P& protocol, const BenchConfig& config) {
  const Counts counts =
      majority_instance_with_margin(protocol, config.n, 2);
  return run_case(
      std::move(name), "skip", std::move(protocol_name), config.skip_batch,
      config,
      [&](std::size_t repeat, obs::EngineProbe* probe,
          std::uint64_t& interactions) {
        return time_skip_batch(protocol, counts, config, repeat, probe,
                               interactions);
      });
}

// Transition-function cost in isolation (no engine, no probe). The
// zoo pairs (programmatic runtime vs its materialized table) isolate the
// cost of computing δ on the fly vs one table lookup.
template <typename P>
CaseResult run_apply_case(std::string name, std::string protocol_name,
                          const P& protocol, const BenchConfig& config) {
  CaseResult result;
  result.name = std::move(name);
  result.engine = "apply";
  result.protocol = std::move(protocol_name);
  result.units = config.batch;

  const auto s = static_cast<std::uint64_t>(protocol.num_states());
  std::vector<double> rates;
  std::uint64_t checksum = 0;
  for (std::size_t r = 0; r < config.repeats; ++r) {
    Xoshiro256ss rng(config.seed, r);
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < config.batch; ++i) {
      const auto a = static_cast<State>(rng.below(s));
      const auto b = static_cast<State>(rng.below(s));
      const Transition t = protocol.apply(a, b);
      checksum += t.initiator + t.responder;
    }
    rates.push_back(static_cast<double>(config.batch) /
                    seconds_since(start));
  }
  result.units_per_sec = summarize(rates);
  result.interactions_per_sec = result.units_per_sec.mean;
  result.probe_interactions = checksum;  // defeats dead-code elimination
  return result;
}

CaseResult run_avc_apply_case(int m, const BenchConfig& config) {
  const avc::AvcProtocol protocol(m, 1);
  return run_apply_case("apply/avc" + std::to_string(m),
                        "avc" + std::to_string(m), protocol, config);
}

void write_report(JsonWriter& json, const BenchConfig& config,
                  const std::vector<CaseResult>& results) {
  json.begin_object();
  json.kv("bench", "engine_microbench");
  json.kv("n", config.n);
  json.kv("batch", config.batch);
  json.kv("skip_batch", config.skip_batch);
  json.kv("repeats", config.repeats);
  json.kv("seed", config.seed);
  json.kv("obs_enabled", obs::kEnabled);
  json.key("results");
  json.begin_array();
  for (const CaseResult& result : results) {
    json.begin_object();
    json.kv("name", result.name);
    json.kv("engine", result.engine);
    json.kv("protocol", result.protocol);
    json.kv("units", result.units);
    json.key("units_per_sec");
    write_stats_json(json, result.units_per_sec);
    json.kv("interactions_per_sec", result.interactions_per_sec);
    json.kv("interactions_per_unit", result.interactions_per_unit);
    json.kv("probe_overhead_pct", result.probe_overhead_pct);
    json.kv("probe_interactions", result.probe_interactions);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.check_known({"n", "batch", "skip-batch", "repeats", "seed", "json"});

  BenchConfig config;
  config.n = static_cast<std::uint64_t>(
      args.get_int("n", static_cast<std::int64_t>(config.n)));
  config.batch = static_cast<std::uint64_t>(
      args.get_int("batch", static_cast<std::int64_t>(config.batch)));
  config.skip_batch = static_cast<std::uint64_t>(args.get_int(
      "skip-batch", static_cast<std::int64_t>(config.skip_batch)));
  config.repeats = static_cast<std::size_t>(
      args.get_int("repeats", static_cast<std::int64_t>(config.repeats)));
  config.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(config.seed)));
  const std::string json_path = args.get_string("json", "BENCH_engines.json");
  POPBEAN_CHECK_MSG(config.n >= 4, "--n must be at least 4");
  POPBEAN_CHECK_MSG(config.batch > 0 && config.skip_batch > 0,
                    "--batch/--skip-batch must be positive");
  POPBEAN_CHECK_MSG(config.repeats > 0, "--repeats must be positive");

  print_banner(std::cout,
               "engine microbench: n = " + std::to_string(config.n) +
                   ", repeats = " + std::to_string(config.repeats) +
                   (obs::kEnabled ? "" : " (POPBEAN_OBS=OFF)"));

  const FourStateProtocol four_state;
  const avc::AvcProtocol avc63(63, 1);
  const avc::AvcProtocol avc4095(4095, 1);
  const avc::AvcProtocol avc1000(997, 1);  // Fig. 3's n = 1001 cell, s = 1000
  const avc::AvcParams nstate_params = avc::n_state(config.n);
  const avc::AvcProtocol avc_nstate(nstate_params.m, nstate_params.d);
  const zoo::Runtime<zoo::DoublingProtocol> zoo_doubling{
      zoo::DoublingProtocol(8)};
  const zoo::MaterializedView zoo_doubling_tab = zoo::materialize(zoo_doubling);

  std::vector<CaseResult> results;
  results.push_back(run_engine_case<AgentEngine>(
      "agent/four_state", "agent", "four_state", four_state, config));
  results.push_back(run_engine_case<AgentEngine>("agent/avc63", "agent",
                                                 "avc63", avc63, config));
  results.push_back(run_engine_case<CountEngine>(
      "count/four_state", "count", "four_state", four_state, config));
  results.push_back(run_engine_case<CountEngine>("count/avc63", "count",
                                                 "avc63", avc63, config));
  results.push_back(run_engine_case<CountEngine>("count/avc4095", "count",
                                                 "avc4095", avc4095, config));
  results.push_back(run_engine_case<CountEngine>(
      "count/avc_nstate", "count", "avc_nstate", avc_nstate, config));
  results.push_back(run_engine_case<CountEngine>(
      "count/zoo_doubling", "count", "zoo:doubling", zoo_doubling, config));
  results.push_back(run_engine_case<CountEngine>("count/zoo_doubling_tab",
                                                 "count", "zoo:doubling(tab)",
                                                 zoo_doubling_tab, config));
  results.push_back(run_skip_case("skip/four_state", "four_state",
                                  four_state, config));
  results.push_back(run_skip_case("skip/avc63", "avc63", avc63, config));
  results.push_back(
      run_skip_case("skip/avc1000", "avc1000", avc1000, config));
  results.push_back(run_avc_apply_case(9, config));
  results.push_back(run_avc_apply_case(63, config));
  results.push_back(run_avc_apply_case(1023, config));
  results.push_back(run_apply_case("apply/zoo_doubling", "zoo:doubling",
                                   zoo_doubling, config));
  results.push_back(run_apply_case("apply/zoo_doubling_tab",
                                   "zoo:doubling(tab)", zoo_doubling_tab,
                                   config));

  TablePrinter table({"case", "Munits/s", "Minter/s", "inter/unit",
                      "probe_ovh_%"});
  table.header(std::cout);
  for (const CaseResult& result : results) {
    table.row(std::cout,
              {result.name, format_value(result.units_per_sec.mean / 1e6),
               format_value(result.interactions_per_sec / 1e6),
               format_value(result.interactions_per_unit),
               format_value(result.probe_overhead_pct)});
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) throw std::runtime_error("cannot open " + json_path);
    JsonWriter json(out);
    write_report(json, config, results);
    out << "\n";
    POPBEAN_CHECK(json.complete());
    std::cout << "\nJSON written to " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace popbean

int main(int argc, char** argv) {
  try {
    return popbean::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "engine_microbench: " << e.what() << "\n";
    return 2;
  }
}
