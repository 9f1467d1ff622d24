// popbean-faults — perturbed majority runs from the command line.
//
// The CLI companion of the src/faults/ subsystem (popbean-lint's sibling on
// the robustness side): picks a protocol, a fault model, and a schedule
// model, sweeps the fault rate across replicated runs on the thread pool,
// and reports accuracy, the RunStatus breakdown, injected-fault tallies, and
// the first-invariant-violation time distribution per rate. The monitored
// invariant is the protocol's own conservation law — the same weight vector
// popbean-lint --list-invariants prints, so monitor and verifier can be
// cross-checked.
//
// Exit status: 0 on a completed sweep, 2 on usage errors. The tool reports
// measurements and does not judge them (unlike the lint tool, a degraded
// accuracy under faults is a result, not a failure).
//
// Flags:
//   --protocol=avc|four-state|three-state   protocol under test (default avc)
//   --m=M --d=D        AVC parameters (default 3, 1)
//   --fault=none|crash|corrupt|stuck|sign-flip    fault model (default corrupt)
//   --rates=R1,R2,…    per-interaction fault rates to sweep; for stuck, the
//                      stubborn fraction of the population (default 0,1e-4,1e-3)
//   --recovery=R       crash-recovery rate (default 0: crashes are permanent)
//   --schedule=uniform|zipf|rounds|adversary      schedule model (default uniform)
//   --zipf-exponent=T  Zipf skew (default 1.0)
//   --budget=K         adversary redraws per interaction (default 4)
//   --n=N              population size (default 1000)
//   --eps=E            initial margin fraction (default 0.02)
//   --replicates=R     replicates per rate (default 25)
//   --seed=S           base seed (default 20150721)
//   --max-time=T       parallel-time budget per run (default 2000)
//   --threads=T        worker threads (default: hardware concurrency)
//   --json=PATH        also write the sweep as a JSON report
//   --csv=PATH         also write the per-rate series as CSV
//
// Observability (DESIGN.md §8):
//   --prom-out=PATH      write the metrics registry (engine transition-kind
//                        counters, fault tallies, thread-pool task latencies,
//                        per-cell wall times) as a Prometheus text
//                        exposition after the sweep
//   --trace-out=PATH     write a Chrome trace_event timeline of the sweep's
//                        cells — load it in chrome://tracing or Perfetto
//   --telemetry-out=PATH stream one JSONL event per finished cell as the
//                        sweep runs (tail it to watch progress live)
//
// Crash tolerance & replay (DESIGN.md §7):
//   --checkpoint=PATH  append completed (rate, replicate) cells to a
//                      checksummed manifest as the sweep runs
//   --checkpoint-every=K   manifest flush cadence in cells (default 16)
//   --resume           skip cells already recorded in the manifest; the
//                      merged result is bit-identical to an uninterrupted run
//   --timeout=SECONDS  wall-clock budget per cell (0 = unlimited)
//   --retries=K        re-attempts after a timeout (default 1)
//   --record=PREFIX    after the sweep, re-run the first invariant-violating
//                      cell deterministically with the event recorder and
//                      write PREFIX.header.pbsn + PREFIX.log.pbsn for
//                      popbean-replay
//
// SIGINT/SIGTERM drain the sweep: in-flight cells stop at their next poll,
// completed work is flushed to the manifest, and the tool exits 3 — rerun
// with --resume to pick up where it left off.

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/avc.hpp"
#include "harness/fault_sweep.hpp"
#include "harness/report.hpp"
#include "obs/metrics.hpp"
#include "obs/pool_obs.hpp"
#include "obs/prom.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "protocols/four_state.hpp"
#include "protocols/three_state.hpp"
#include "recovery/event_log.hpp"
#include "recovery/record.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "verify/builtin_invariants.hpp"

namespace {

using namespace popbean;

// Set by the SIGINT/SIGTERM handler; polled by every in-flight cell.
std::atomic<bool> g_interrupted{false};

extern "C" void handle_drain_signal(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
}

// Thrown to unwind out of the dispatch layers after a drained sweep.
struct InterruptedSweep {};

struct Settings {
  std::string protocol = "avc";
  int m = 3;
  int d = 1;
  std::string fault = "corrupt";
  std::vector<double> rates = {0.0, 1e-4, 1e-3};
  double recovery = 0.0;
  std::string schedule = "uniform";
  double zipf_exponent = 1.0;
  int budget = 4;
  FaultSweepConfig config;
  std::size_t threads = 0;
  std::string json_path;
  std::string csv_path;
  FaultSweepRecovery recovery_cfg;
  std::string record_prefix;
  std::string prom_path;
  std::string trace_path;
  std::string telemetry_path;
};

void print_sweep(const std::string& label, const Settings& settings,
                 const std::vector<FaultSweepPoint>& points) {
  print_banner(std::cout, label + " under " + settings.fault + " faults, " +
                              settings.schedule + " schedule, n = " +
                              std::to_string(settings.config.n));
  TablePrinter table({"rate", "accuracy", "wrong", "step_limit", "absorbing",
                      "faults", "delays", "violated", "t_violation"});
  table.header(std::cout);
  for (const FaultSweepPoint& point : points) {
    table.row(std::cout,
              {format_value(point.rate),
               format_value(point.summary.accuracy()),
               std::to_string(point.summary.wrong),
               std::to_string(point.summary.step_limit),
               std::to_string(point.summary.absorbing),
               std::to_string(point.counters.total_faults()),
               std::to_string(point.counters.schedule_delays),
               std::to_string(point.violated),
               point.violated == 0 ? "-"
                                   : format_value(point.violation_time.median)});
  }
}

void write_outputs(const std::string& label, const Settings& settings,
                   const std::vector<FaultSweepPoint>& points) {
  print_sweep(label, settings, points);
  if (!settings.csv_path.empty()) {
    CsvWriter csv(settings.csv_path,
                  {"rate", "accuracy", "error_fraction", "converged",
                   "step_limit", "absorbing", "total_faults",
                   "schedule_delays", "violated_replicates",
                   "median_violation_time"});
    for (const FaultSweepPoint& point : points) {
      csv.row({format_value(point.rate), format_value(point.summary.accuracy()),
               format_value(point.summary.error_fraction()),
               std::to_string(point.summary.converged),
               std::to_string(point.summary.step_limit),
               std::to_string(point.summary.absorbing),
               std::to_string(point.counters.total_faults()),
               std::to_string(point.counters.schedule_delays),
               std::to_string(point.violated),
               format_value(point.violation_time.median)});
    }
    std::cout << "CSV written to " << csv.path() << "\n";
  }
  if (!settings.json_path.empty()) {
    std::ofstream out(settings.json_path);
    if (!out) {
      throw std::runtime_error("cannot open " + settings.json_path);
    }
    JsonWriter json(out);
    json.begin_object();
    json.kv("tool", "popbean-faults");
    json.kv("fault_model", settings.fault);
    json.kv("schedule", settings.schedule);
    json.key("sweep");
    write_fault_sweep_json(json, label, settings.config, points);
    json.end_object();
    out << "\n";
    std::cout << "JSON written to " << settings.json_path << "\n";
  }
}

// After a sweep, deterministically re-runs the first cell (lowest rate,
// then lowest replicate) whose monitor saw a violation, with the event
// recorder attached, and writes the capture pair for popbean-replay.
template <ProtocolLike P, typename FaultFactory, typename ScheduleFactory>
void record_first_violation(const P& protocol, const std::string& label,
                            const verify::LinearInvariant& invariant,
                            const Settings& settings,
                            const FaultSweepOutcome& outcome,
                            FaultFactory&& make_faults,
                            ScheduleFactory&& make_schedule) {
  for (std::size_t p = 0; p < settings.rates.size(); ++p) {
    for (std::size_t r = 0; r < settings.config.replicates; ++r) {
      const std::size_t index = p * settings.config.replicates + r;
      if (!outcome.present[index] || outcome.cells[index].timed_out ||
          !outcome.cells[index].violated) {
        continue;
      }
      const MajorityInstance instance =
          make_instance(settings.config.n, settings.config.epsilon);
      const Counts initial = majority_instance_with_margin(
          protocol, instance.n, instance.margin, instance.majority);
      recovery::RecordSpec spec;
      spec.protocol_name = label;
      spec.seed = settings.config.seed;
      spec.stream =
          static_cast<std::uint64_t>(p) * settings.config.replicates + r;
      spec.max_interactions = settings.config.max_interactions;
      spec.rate = settings.rates[p];
      spec.epsilon = settings.config.epsilon;
      const recovery::RecordedRun recorded = recovery::record_perturbed_run(
          protocol, invariant, initial, make_faults(settings.rates[p]),
          make_schedule(), spec);
      const std::string header_path = settings.record_prefix + ".header.pbsn";
      const std::string log_path = settings.record_prefix + ".log.pbsn";
      recovery::save_capture_files(header_path, log_path, recorded.header,
                                   recorded.log);
      std::cout << "recorded violating cell (rate=" << settings.rates[p]
                << ", replicate=" << r << ", first violation at step "
                << recorded.log.outcome.violation_step << ") to "
                << header_path << " + " << log_path << "\n";
      return;
    }
  }
  std::cout << "--record: no replicate violated the invariant; nothing "
               "recorded\n";
}

// Innermost dispatch layer: fault and schedule factories resolved, run.
// Always routes through the recoverable sweep (without --checkpoint it
// simply never writes a manifest); SIGINT/SIGTERM drain it.
template <ProtocolLike P, typename FaultFactory, typename ScheduleFactory>
void run_sweep(const P& protocol, const std::string& label,
               const verify::LinearInvariant& invariant,
               const Settings& settings, FaultFactory&& make_faults,
               ScheduleFactory&& make_schedule) {
  // Sinks are declared before the pool: pool teardown (and its task
  // observer) must finish while they are still alive.
  std::optional<obs::MetricsRegistry> metrics;
  std::optional<obs::TraceCollector> trace;
  std::optional<obs::TelemetrySink> telemetry;
  ThreadPool pool(settings.threads);
  FaultSweepRecovery recovery_options = settings.recovery_cfg;
  recovery_options.run.cancel = &g_interrupted;
  if (!settings.prom_path.empty()) {
    metrics.emplace();
    obs::attach_thread_pool(pool, *metrics);
    recovery_options.run.obs.metrics = &*metrics;
  }
  if (!settings.trace_path.empty()) {
    trace.emplace();
    recovery_options.run.obs.trace = &*trace;
  }
  if (!settings.telemetry_path.empty()) {
    telemetry.emplace(settings.telemetry_path);
    recovery_options.run.obs.telemetry = &*telemetry;
  }
  const FaultSweepOutcome outcome = run_fault_sweep_recoverable(
      pool, protocol, invariant, label, settings.rates, settings.config,
      recovery_options, make_faults, make_schedule);
  if (outcome.report.skipped > 0) {
    std::cout << "resume: skipped " << outcome.report.skipped
              << " cells already in " << recovery_options.manifest_path
              << "\n";
  }
  for (const std::string& hung : outcome.report.hung) {
    std::cerr << "watchdog: " << hung << "\n";
  }
  write_outputs(label, settings, outcome.points);
  // Observability outputs are written even for an interrupted sweep — a
  // partial timeline is exactly what a post-mortem wants.
  if (metrics) {
    std::ofstream out(settings.prom_path);
    if (!out) throw std::runtime_error("cannot open " + settings.prom_path);
    obs::PromExposition prom;
    prom.add(metrics->snapshot(), {});
    prom.write(out);
    std::cout << "metrics written to " << settings.prom_path << "\n";
  }
  if (trace) {
    std::ofstream out(settings.trace_path);
    if (!out) throw std::runtime_error("cannot open " + settings.trace_path);
    trace->write_chrome_trace(out);
    std::cout << "trace written to " << settings.trace_path << "\n";
  }
  if (telemetry) {
    std::cout << "telemetry (" << telemetry->lines_written()
              << " events) written to " << settings.telemetry_path << "\n";
  }
  if (outcome.report.timed_out > 0) {
    std::cerr << outcome.report.timed_out
              << " cells timed out after retries (recorded as timed_out)\n";
  }
  if (outcome.report.interrupted) {
    std::cerr << "interrupted: " << outcome.report.cancelled
              << " cells not finished; rerun with --resume to complete the "
                 "sweep\n";
    throw InterruptedSweep{};
  }
  if (!settings.record_prefix.empty()) {
    record_first_violation(protocol, label, invariant, settings, outcome,
                           make_faults, make_schedule);
  }
}

template <ProtocolLike P, typename FaultFactory>
void dispatch_schedule(const P& protocol, const std::string& label,
                       const verify::LinearInvariant& invariant,
                       const Settings& settings, FaultFactory&& make_faults) {
  const MajorityInstance instance =
      make_instance(settings.config.n, settings.config.epsilon);
  if (settings.schedule == "uniform") {
    run_sweep(protocol, label, invariant, settings, make_faults,
              [] { return faults::UniformSchedule{}; });
  } else if (settings.schedule == "zipf") {
    run_sweep(protocol, label, invariant, settings, make_faults,
              [&] { return faults::ZipfSchedule(settings.zipf_exponent); });
  } else if (settings.schedule == "rounds") {
    run_sweep(protocol, label, invariant, settings, make_faults,
              [] { return faults::EpidemicRounds{}; });
  } else if (settings.schedule == "adversary") {
    // Greedily delay interactions that help the true majority camp.
    run_sweep(protocol, label, invariant, settings, make_faults, [&] {
      return faults::BoundedAdversary(instance.correct_output(),
                                      settings.budget);
    });
  } else {
    throw std::runtime_error("unknown --schedule '" + settings.schedule + "'");
  }
}

// `make_sign_flip(rate)` builds the protocol-specific adversarial flip.
template <ProtocolLike P, typename SignFlipFactory>
void dispatch_fault(const P& protocol, const std::string& label,
                    const verify::LinearInvariant& invariant,
                    const Settings& settings, SignFlipFactory&& make_sign_flip) {
  if (settings.fault == "none") {
    dispatch_schedule(protocol, label, invariant, settings,
                      [](double) { return faults::NoFaults{}; });
  } else if (settings.fault == "crash") {
    dispatch_schedule(protocol, label, invariant, settings, [&](double rate) {
      return faults::CrashRecovery(rate, settings.recovery);
    });
  } else if (settings.fault == "corrupt") {
    dispatch_schedule(protocol, label, invariant, settings,
                      [](double rate) { return faults::TransientCorruption(rate); });
  } else if (settings.fault == "stuck") {
    dispatch_schedule(protocol, label, invariant, settings,
                      [](double rate) { return faults::StuckAt(rate); });
  } else if (settings.fault == "sign-flip") {
    dispatch_schedule(protocol, label, invariant, settings, make_sign_flip);
  } else {
    throw std::runtime_error("unknown --fault '" + settings.fault + "'");
  }
}

void dispatch_protocol(const Settings& settings) {
  if (settings.protocol == "avc") {
    const avc::AvcProtocol protocol(settings.m, settings.d);
    dispatch_fault(protocol,
                   "avc(m=" + std::to_string(settings.m) +
                       ",d=" + std::to_string(settings.d) + ")",
                   verify::avc_sum_invariant(protocol), settings,
                   [&](double rate) { return faults::avc_sign_flip(protocol, rate); });
  } else if (settings.protocol == "four-state") {
    const FourStateProtocol protocol;
    dispatch_fault(protocol, "four-state",
                   verify::four_state_difference_invariant(), settings,
                   [](double rate) { return faults::four_state_sign_flip(rate); });
  } else if (settings.protocol == "three-state") {
    const ThreeStateProtocol protocol;
    // Sign flip for the three-state baseline: swap the strong opinions.
    std::vector<State> map = {ThreeStateProtocol::kY, ThreeStateProtocol::kX,
                              ThreeStateProtocol::kBlankX,
                              ThreeStateProtocol::kBlankY};
    std::vector<char> eligible = {1, 1, 0, 0};
    dispatch_fault(protocol, "three-state",
                   verify::agent_count_invariant(protocol), settings,
                   [&](double rate) {
                     return faults::SignFlip(rate, map, eligible);
                   });
  } else {
    throw std::runtime_error("unknown --protocol '" + settings.protocol + "'");
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.check_known({"protocol", "m", "d", "fault", "rates", "recovery",
                      "schedule", "zipf-exponent", "budget", "n", "eps",
                      "replicates", "seed", "max-time", "threads", "json",
                      "csv", "checkpoint", "checkpoint-every", "resume",
                      "timeout", "retries", "record", "prom-out",
                      "trace-out", "telemetry-out"});
    Settings settings;
    settings.protocol = args.get_string("protocol", settings.protocol);
    settings.m = static_cast<int>(args.get_int("m", settings.m));
    settings.d = static_cast<int>(args.get_int("d", settings.d));
    settings.fault = args.get_string("fault", settings.fault);
    settings.rates = args.get_double_list("rates", settings.rates);
    settings.recovery = args.get_double("recovery", settings.recovery);
    settings.schedule = args.get_string("schedule", settings.schedule);
    settings.zipf_exponent =
        args.get_double("zipf-exponent", settings.zipf_exponent);
    settings.budget = static_cast<int>(args.get_int("budget", settings.budget));
    settings.config.n = args.get_uint64("n", 1000);
    settings.config.epsilon = args.get_double("eps", 0.02);
    settings.config.replicates =
        static_cast<std::size_t>(args.get_uint64("replicates", 25));
    settings.config.seed = args.get_uint64("seed", 20150721);
    const double max_time = args.get_double("max-time", 2000.0);
    settings.config.max_interactions = static_cast<std::uint64_t>(
        max_time * static_cast<double>(settings.config.n));
    settings.threads = static_cast<std::size_t>(args.get_uint64("threads", 0));
    settings.json_path = args.get_string("json", "");
    settings.csv_path = args.get_string("csv", "");
    settings.recovery_cfg.manifest_path = args.get_string("checkpoint", "");
    settings.recovery_cfg.checkpoint_every =
        static_cast<std::size_t>(args.get_int("checkpoint-every", 16));
    settings.recovery_cfg.resume = args.get_bool("resume", false);
    if (settings.recovery_cfg.resume &&
        settings.recovery_cfg.manifest_path.empty()) {
      throw std::runtime_error("--resume requires --checkpoint=PATH");
    }
    settings.recovery_cfg.run.cell_timeout =
        std::chrono::milliseconds(static_cast<std::int64_t>(
            args.get_double("timeout", 0.0) * 1000.0));
    settings.recovery_cfg.run.max_retries =
        static_cast<std::size_t>(args.get_int("retries", 1));
    settings.record_prefix = args.get_string("record", "");
    settings.prom_path = args.get_string("prom-out", "");
    settings.trace_path = args.get_string("trace-out", "");
    settings.telemetry_path = args.get_string("telemetry-out", "");

    std::signal(SIGINT, handle_drain_signal);
    std::signal(SIGTERM, handle_drain_signal);
    dispatch_protocol(settings);
    return 0;
  } catch (const InterruptedSweep&) {
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "popbean-faults: " << e.what() << "\n";
    return 2;
  }
}
