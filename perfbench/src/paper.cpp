// The paper-artifact workloads: Figure 3 at ε = 1/n and the Theorem 4.1
// grid, each regenerated as one "pass" of its full cell grid on a 4-worker
// ThreadPool with the harness's kAuto engine choice.
//
// A run repeats the pass at one seed for the measuring budget. Untraced
// passes call run_majority_once exactly as harness::run_replicates does;
// the traced pass builds the engine kAuto would pick itself, times its
// constructor, attaches an obs::EngineProbe and times run_to_convergence.
// Both follow the same RNG streams, so every pass of a run — traced or not
// — must reproduce the same trajectories; the run checks that.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common.hpp"
#include "core/avc.hpp"
#include "core/avc_params.hpp"
#include "delta.hpp"
#include "harness/experiment.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "protocols/four_state.hpp"
#include "protocols/three_state.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace popbean;

constexpr std::size_t kThreads = 4;
// Setups per run; setup_s is their median.
constexpr int kSetups = 5;

using AnyProtocol =
    std::variant<ThreeStateProtocol, FourStateProtocol, avc::AvcProtocol>;

struct Cell {
  std::string family;  // "3-state" | "4-state" | "avc"
  AnyProtocol protocol;
  MajorityInstance instance;
  std::size_t replicates = 0;
  std::uint64_t seed = 0;
  std::uint64_t cap = 0;

  std::string label() const {
    return family + " n=" + std::to_string(instance.n);
  }
  // 3-state errors are part of the figure, not failures.
  bool exact() const { return family != "3-state"; }
};

template <ProtocolLike P>
EngineKind resolve_auto(const P& protocol) {
  return protocol.num_states() <= SkipEngine<P>::kMaxStates
             ? EngineKind::kSkip
             : EngineKind::kCount;
}

EngineKind engine_of(const Cell& cell) {
  return std::visit([](const auto& p) { return resolve_auto(p); },
                    cell.protocol);
}

std::vector<Cell> fig3_grid(std::uint64_t seed) {
  constexpr std::uint64_t kCap = 400'000'000'000'000ULL;
  std::vector<Cell> cells;
  for (const std::uint64_t n : {1001ULL, 10001ULL, 100001ULL}) {
    const MajorityInstance instance{n, 1, Opinion::A};  // ε = 1/n
    const avc::AvcParams params = avc::n_state(n);
    cells.push_back({"3-state", ThreeStateProtocol{}, instance, 25, 0, kCap});
    cells.push_back({"4-state", FourStateProtocol{}, instance, 25, 0, kCap});
    cells.push_back({"avc", avc::AvcProtocol(params.m, params.d), instance, 25,
                     0, kCap});
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].seed = mix_seed(seed, i);
  }
  return cells;
}

std::vector<Cell> thm41_grid(std::uint64_t seed) {
  constexpr double kEpsilon = 0.01;
  constexpr std::uint64_t kCap = 400'000'000'000ULL;
  const avc::AvcParams params = avc::for_epsilon(kEpsilon);  // s ≈ 100
  std::vector<Cell> cells;
  for (const std::uint64_t n : {10000ULL, 100000ULL, 300000ULL}) {
    cells.push_back({"avc", avc::AvcProtocol(params.m, params.d),
                     make_instance(n, kEpsilon), 10, 0, kCap});
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].seed = mix_seed(seed, i);
  }
  return cells;
}

struct Replicate {
  RunResult result;
  double run_s = 0.0;  // replicate start → result
  // Traced passes only.
  double construct_s = 0.0;  // engine constructor
  double engine_s = 0.0;     // run_to_convergence
  obs::EngineProbe probe;
};

struct Pass {
  double wall_s = 0.0;
  std::vector<std::vector<Replicate>> cells;

  // Exact per-replicate outcome of the first `count` cells: the
  // determinism fingerprint of a pass.
  std::vector<std::uint64_t> signature(std::size_t count = SIZE_MAX) const {
    std::vector<std::uint64_t> sig;
    for (std::size_t c = 0; c < std::min(count, cells.size()); ++c) {
      const auto& reps = cells[c];
      for (const Replicate& rep : reps) {
        sig.push_back(rep.result.interactions);
        sig.push_back(static_cast<std::uint64_t>(rep.result.status) * 2 +
                      static_cast<std::uint64_t>(rep.result.decided));
      }
    }
    return sig;
  }
};

template <typename Engine, ProtocolLike P>
void run_traced_on(const P& protocol, const Counts& counts, const Cell& cell,
                   Xoshiro256ss& rng, Replicate& rep,
                   obs::TraceCollector& trace) {
  const auto t0 = Clock::now();
  Engine engine(protocol, counts);
  const auto t1 = Clock::now();
  engine.attach_probe(&rep.probe);
  const auto t2 = Clock::now();
  rep.result = run_to_convergence(engine, rng, cell.cap);
  const auto t3 = Clock::now();
  rep.construct_s = seconds_between(t0, t1);
  rep.engine_s = seconds_between(t2, t3);
  const double n = static_cast<double>(cell.instance.n);
  trace.complete_event("construct", "engine", t0, t1, {{"n", n}});
  trace.complete_event(
      "run_to_convergence", "engine", t2, t3,
      {{"n", n}, {"interactions", static_cast<double>(rep.result.interactions)}});
}

// run_majority_once with the engine spelled out, timed and probed.
template <ProtocolLike P>
void run_traced(const P& protocol, const Cell& cell, std::uint64_t stream,
                Replicate& rep, obs::TraceCollector& trace) {
  const Counts counts =
      majority_instance_with_margin(protocol, cell.instance.n,
                                    cell.instance.margin,
                                    cell.instance.majority);
  Xoshiro256ss rng(cell.seed, stream);
  if (resolve_auto(protocol) == EngineKind::kSkip) {
    run_traced_on<SkipEngine<P>>(protocol, counts, cell, rng, rep, trace);
  } else {
    run_traced_on<CountEngine<P>>(protocol, counts, cell, rng, rep, trace);
  }
}

Pass run_pass(ThreadPool& pool, const std::vector<Cell>& cells,
              obs::TraceCollector* trace) {
  Pass pass;
  pass.cells.resize(cells.size());
  const auto start = Clock::now();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    std::vector<Replicate>& reps = pass.cells[c];
    reps.resize(cell.replicates);
    parallel_for_index(pool, cell.replicates, [&](std::size_t r) {
      Replicate& rep = reps[r];
      const auto begin = Clock::now();
      std::visit(
          [&](const auto& protocol) {
            if (trace == nullptr) {
              rep.result =
                  run_majority_once(protocol, cell.instance, EngineKind::kAuto,
                                    cell.seed, r, cell.cap);
            } else {
              run_traced(protocol, cell, r, rep, *trace);
            }
          },
          cell.protocol);
      const auto end = Clock::now();
      rep.run_s = seconds_between(begin, end);
    });
  }
  pass.wall_s = seconds_between(start, Clock::now());
  return pass;
}

double mean_parallel_time(const std::vector<Replicate>& reps) {
  std::vector<double> times;
  for (const Replicate& rep : reps) times.push_back(rep.result.parallel_time);
  return mean(times);
}

std::string fmt(const char* format, double value) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, format, value);
  return buffer;
}

// Per-replicate convergence checks plus the workload's shape check.
void check_pass(const std::string& workload, const std::vector<Cell>& cells,
                const Pass& pass, Result& result) {
  std::size_t three_state_errors = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (const Replicate& rep : pass.cells[c]) {
      const bool ok = rep.result.converged() &&
                      rep.result.decided == cells[c].instance.correct_output();
      if (cells[c].exact()) {
        ++result.attempted;
        if (!ok) {
          ++result.failed;
          result.correct = false;
          result.table.push_back("replicate FAIL " + cells[c].label());
        }
      } else if (!ok) {
        ++three_state_errors;
      }
    }
  }
  if (workload == "fig3") {
    result.table.push_back(
        "3-state replicates ending in the error state (not counted): " +
        std::to_string(three_state_errors));
    // Cells 6..8 are n = 100001: 3-state, 4-state, AVC.
    const double ratio = mean_parallel_time(pass.cells[7]) /
                         mean_parallel_time(pass.cells[8]);
    result.check(ratio > 100.0,
                 fmt("4-state/AVC time ratio at n=100001 = %.4g (> 100)", ratio));
  } else {
    double lo = 1e300;
    double hi = 0.0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const double per_log =
          mean_parallel_time(pass.cells[c]) /
          std::log(static_cast<double>(cells[c].instance.n));
      lo = std::min(lo, per_log);
      hi = std::max(hi, per_log);
    }
    result.check(hi <= 2.0 * lo,
                 fmt("time/log n spread across n = %.4gx (<= 2)", hi / lo));
  }
}

// Builds the pool and warms it up on the grid's smallest cells: the work a
// run does before its first timed pass.
std::unique_ptr<ThreadPool> set_up(std::vector<Cell> cells) {
  auto pool = std::make_unique<ThreadPool>(kThreads);
  const std::uint64_t n0 = cells.front().instance.n;
  std::vector<Cell> warm;
  for (Cell& cell : cells) {
    if (cell.instance.n != n0) continue;
    cell.replicates = kThreads;
    cell.seed = mix_seed(cell.seed, 0x3a3a);
    warm.push_back(std::move(cell));
  }
  // The warm-up's outcome is not part of the measurement.
  (void)run_pass(*pool, warm, nullptr);
  return pool;
}

// Harness-level figures of untraced passes.
void harness_layers(const Pass& pass, Result& result) {
  double busy = 0.0;
  double straggler = 0.0;
  for (const auto& reps : pass.cells) {
    std::vector<double> times;
    for (const Replicate& rep : reps) {
      busy += rep.run_s;
      times.push_back(rep.run_s);
    }
    const double mid = median(times);
    if (mid > 0.0) {
      straggler = std::max(
          straggler, *std::max_element(times.begin(), times.end()) / mid);
    }
  }
  result.layer("harness.parallel_efficiency", "ratio",
               busy / (static_cast<double>(kThreads) * pass.wall_s));
  result.layer("harness.straggler_ratio", "ratio", straggler);
}

// Engine-level figures of the traced pass.
void engine_layers(const std::vector<Cell>& cells, const Pass& pass,
                   Result& result) {
  double count_busy = 0.0, skip_busy = 0.0, construct = 0.0;
  std::uint64_t count_interactions = 0, count_productive = 0;
  std::uint64_t skip_steps = 0, skip_nulls = 0, skip_replicates = 0;
  std::uint64_t cells_skip = 0, cells_count = 0, total = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const bool skip = engine_of(cells[c]) == EngineKind::kSkip;
    ++(skip ? cells_skip : cells_count);
    for (const Replicate& rep : pass.cells[c]) {
      total += rep.result.interactions;
      if (skip) {
        skip_busy += rep.engine_s;
        construct += rep.construct_s;
        skip_steps += rep.probe.productive;
        skip_nulls += rep.probe.kinds[0];
        ++skip_replicates;
      } else {
        count_busy += rep.engine_s;
        count_interactions += rep.probe.interactions;
        count_productive += rep.probe.productive;
      }
    }
  }
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  result.layer("engine.count.busy_s", "s", count_busy);
  result.layer("engine.count.interactions", "count",
               d(count_interactions));
  result.layer("engine.count.ns_per_interaction", "ns",
               ratio(count_busy * 1e9, d(count_interactions)));
  result.layer("engine.count.productive_ratio", "ratio",
               ratio(d(count_productive), d(count_interactions)));
  result.layer("engine.skip.busy_s", "s", skip_busy);
  result.layer("engine.skip.steps", "count", d(skip_steps));
  result.layer("engine.skip.ns_per_step", "ns",
               ratio(skip_busy * 1e9, d(skip_steps)));
  result.layer("engine.skip.nulls_per_step", "ratio",
               ratio(d(skip_nulls), d(skip_steps)));
  result.layer("engine.skip.construct_ms", "ms",
               ratio(construct * 1e3, d(skip_replicates)));
  result.layer("engine.cells.skip", "count", d(cells_skip));
  result.layer("engine.cells.count", "count", d(cells_count));
  result.layer("engine.interactions_total", "count", d(total));
}

// δ cost on pairs from configurations the workload's cells visit.
void delta_layers(const std::string& workload, std::uint64_t seed,
                  Result& result) {
  constexpr std::size_t kSnapshots = 64;
  constexpr std::size_t kPerSnapshot = 2048;
  const auto time_delta = [&](const std::string& name, const auto& protocol,
                              const MajorityInstance& instance) {
    const Counts counts = majority_instance_with_margin(
        protocol, instance.n, instance.margin, instance.majority);
    const std::vector<StatePair> pairs = visited_pairs(
        protocol, counts, mix_seed(seed, 0xde1), kSnapshots, kPerSnapshot);
    result.layer("delta." + name + ".ns", "ns", apply_ns(protocol, pairs));
  };
  if (workload == "fig3") {
    const MajorityInstance instance{10001, 1, Opinion::A};
    const avc::AvcParams params = avc::n_state(instance.n);
    time_delta("avc_nstate", avc::AvcProtocol(params.m, params.d), instance);
    time_delta("four_state", FourStateProtocol{}, instance);
    time_delta("three_state", ThreeStateProtocol{}, instance);
  } else {
    const avc::AvcParams params = avc::for_epsilon(0.01);
    time_delta("avc_s100", avc::AvcProtocol(params.m, params.d),
               make_instance(10000, 0.01));
  }
}

Result run_paper(const Options& options) {
  Result result;
  const std::string& workload = options.workload;
  // Pass k of a run regenerates the grid at sub-seed k, so a run's medians
  // average over several seeds' trajectories as well as machine noise.
  const auto grid = [&](std::uint64_t pass) {
    const std::uint64_t seed = mix_seed(options.seed, pass);
    return workload == "fig3" ? fig3_grid(seed) : thm41_grid(seed);
  };

  // setup_s: the first setup counts from main() entry, the rest from their
  // own start; the last one's pool is kept.
  std::vector<double> setups;
  std::unique_ptr<ThreadPool> pool;
  for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    const auto begin = i == 0 ? options.process_start : Clock::now();
    pool.reset();
    pool = set_up(grid(0));
    setups.push_back(seconds_between(begin, Clock::now()));
  }

  if (!options.trace) {
    // The pass count follows from the budget and a nominal pass time, not
    // from how fast this host runs, so every run at a seed does the same
    // work. At least two.
    const double nominal_pass_s = workload == "fig3" ? 8.0 : 5.0;
    const auto count = std::max<long long>(
        2, std::llround(options.seconds / nominal_pass_s));
    std::vector<Pass> passes;
    for (long long k = 0; k < count; ++k) {
      const std::vector<Cell> cells = grid(static_cast<std::uint64_t>(k));
      passes.push_back(run_pass(*pool, cells, nullptr));
      check_pass(workload, cells, passes.back(), result);
    }
    // Determinism: pass 0's smallest cells, re-run, reproduce exactly.
    std::vector<Cell> small = grid(0);
    const std::uint64_t n0 = small.front().instance.n;
    small.erase(std::remove_if(small.begin(), small.end(),
                               [n0](const Cell& c) { return c.instance.n != n0; }),
                small.end());
    const Pass again = run_pass(*pool, small, nullptr);
    result.check(again.signature() == passes[0].signature(small.size()),
                 "determinism: re-running pass 0's n=" + std::to_string(n0) +
                     " cells reproduces every replicate");

    std::vector<double> walls;
    for (const Pass& pass : passes) walls.push_back(pass.wall_s);
    result.table.push_back(
        "passes " + std::to_string(passes.size()) +
        fmt(", failed_frac %.4g ratio", static_cast<double>(result.failed) /
                                      static_cast<double>(result.attempted)));
    result.end_to_end = {
        {"wall_s", "s", median(walls)},
        {"setup_s", "s", median(setups)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        // A paper job is one request for the whole grid, so its latency is
        // the pass's wall time.
        {"p50_ms", "ms", median(walls) * 1e3},
    };
    return result;
  }

  // Traced run: one untraced pass and one probed pass at sub-seed 0, then
  // the δ timings.
  const std::vector<Cell> cells = grid(0);
  const Pass plain = run_pass(*pool, cells, nullptr);
  obs::TraceCollector trace;
  const Pass traced = run_pass(*pool, cells, &trace);
  check_pass(workload, cells, plain, result);
  check_pass(workload, cells, traced, result);
  result.check(traced.signature() == plain.signature(),
               "determinism: the traced pass reproduces the untraced one "
               "(interactions and decision of every replicate)");
  harness_layers(plain, result);
  engine_layers(cells, traced, result);
  delta_layers(workload, options.seed, result);
  result.layer("obs.trace_overhead_pct", "%",
               (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0);
  result.layer("obs.trace_events", "count",
               static_cast<double>(trace.event_count()));
  result.layer("obs.trace_dropped", "count",
               static_cast<double>(trace.dropped_count()));
  return result;
}

}  // namespace

Result run_fig3(const Options& options) { return run_paper(options); }
Result run_thm41(const Options& options) { return run_paper(options); }

}  // namespace perfbench
