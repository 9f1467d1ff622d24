// popbean-replay — deterministic replay and minimization of recorded runs.
//
// Consumes the capture pair written by `popbean-faults --record=PREFIX`
// (or recovery::save_capture_files): a self-contained header and an event
// log. The capture embeds the protocol, the monitored invariant, and the
// initial configuration, so replay needs no other inputs:
//
//   popbean-replay run.header.pbsn run.log.pbsn
//
// re-applies every recorded event and verifies the reconstruction is
// bit-exact against the recorded outcome — same decision, same interaction
// count, same first-invariant-violation step, same final configuration.
//
//   popbean-replay run.header.pbsn run.log.pbsn --shrink --out=min
//
// additionally delta-debugs the fault schedule down to a 1-minimal subset
// that still reproduces the recorded failure (the Invariant 4.3 violation
// and/or the wrong decision), writes min.header.pbsn + min.log.pbsn, and
// re-verifies that replaying the minimized capture reproduces it.
//
// Flags:
//   --header=PATH --log=PATH   alternative to the two positional paths
//   --shrink                   minimize the fault schedule (ddmin)
//   --out=PREFIX               minimized capture output prefix
//                              (default: <log path>.min)
//   --events                   dump the event log before replaying
//   --prom-out=PATH            write the metrics registry (event/fault
//                              counts, shrink probe tallies) as a
//                              Prometheus text exposition on exit
//   --trace-out=PATH           write a Chrome trace_event timeline of the
//                              replay/shrink phases (chrome://tracing,
//                              Perfetto)
//
// Exit status: 0 replay matches (and, with --shrink, the minimized capture
// reproduces); 1 replay diverged from the recorded outcome; 2 usage or
// file errors.

#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "protocols/tabulated_io.hpp"
#include "recovery/event_log.hpp"
#include "recovery/replay.hpp"
#include "recovery/shrink.hpp"
#include "util/cli.hpp"
#include "verify/linear_invariant.hpp"

namespace {

using namespace popbean;

const char* status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kConverged: return "converged";
    case RunStatus::kStepLimit: return "step-limit";
    case RunStatus::kAbsorbing: return "absorbing";
  }
  return "?";
}

void print_outcome(const char* label, const recovery::CaptureOutcome& outcome) {
  std::cout << label << ": " << status_name(outcome.status);
  if (outcome.status == RunStatus::kConverged) {
    std::cout << " (decided " << outcome.decided << ")";
  }
  std::cout << ", " << outcome.interactions << " interactions, ";
  if (outcome.violated) {
    std::cout << "invariant violated at step " << outcome.violation_step;
  } else {
    std::cout << "invariant held";
  }
  std::cout << "\n";
}

std::size_t count_faults(const std::vector<recovery::ReplayEvent>& events) {
  std::size_t faults = 0;
  for (const recovery::ReplayEvent& event : events) {
    if (event.is_fault()) ++faults;
  }
  return faults;
}

// The correct majority decision for the recorded instance: the output
// backed by more agents in the initial configuration.
Output correct_output_of(const TabulatedProtocol& protocol,
                         const Counts& initial) {
  std::uint64_t out_count[2] = {0, 0};
  for (State q = 0; q < initial.size(); ++q) {
    out_count[protocol.output(q) == 0 ? 0 : 1] += initial[q];
  }
  return out_count[1] >= out_count[0] ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // The two capture paths are accepted positionally (the documented
    // invocation) or as --header/--log; CliArgs itself rejects positional
    // tokens, so split them off first.
    std::vector<std::string> positional;
    std::vector<char*> flag_argv = {argv[0]};
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg(argv[i]);
      if (arg.rfind("--", 0) == 0) {
        flag_argv.push_back(argv[i]);
      } else {
        positional.emplace_back(arg);
      }
    }
    const CliArgs args(static_cast<int>(flag_argv.size()), flag_argv.data());
    args.check_known({"header", "log", "shrink", "out", "events",
                      "prom-out", "trace-out"});

    const std::string prom_path = args.get_string("prom-out", "");
    const std::string trace_path = args.get_string("trace-out", "");
    std::optional<obs::MetricsRegistry> metrics;
    std::optional<obs::TraceCollector> trace;
    if (!prom_path.empty()) metrics.emplace();
    if (!trace_path.empty()) trace.emplace();
    obs::TraceCollector* const tracer = trace ? &*trace : nullptr;
    // Called before every exit path so partial work (e.g. a diverged
    // replay) still leaves its telemetry behind.
    const auto write_obs = [&] {
      if (metrics) {
        std::ofstream out(prom_path);
        if (!out) throw std::runtime_error("cannot open " + prom_path);
        obs::PromExposition prom;
        prom.add(metrics->snapshot(), {});
        prom.write(out);
        std::cout << "metrics written to " << prom_path << "\n";
      }
      if (trace) {
        std::ofstream out(trace_path);
        if (!out) throw std::runtime_error("cannot open " + trace_path);
        trace->write_chrome_trace(out, "popbean-replay");
        std::cout << "trace written to " << trace_path << "\n";
      }
    };

    std::string header_path = args.get_string("header", "");
    std::string log_path = args.get_string("log", "");
    std::size_t next_positional = 0;
    if (header_path.empty() && next_positional < positional.size()) {
      header_path = positional[next_positional++];
    }
    if (log_path.empty() && next_positional < positional.size()) {
      log_path = positional[next_positional++];
    }
    if (next_positional < positional.size()) {
      throw std::runtime_error("unexpected argument: " +
                               positional[next_positional]);
    }
    if (header_path.empty() || log_path.empty()) {
      std::cerr << "usage: popbean-replay <capture.header.pbsn> "
                   "<capture.log.pbsn> [--shrink] [--out=PREFIX] [--events]\n";
      return 2;
    }

    const recovery::CaptureHeader header = [&] {
      obs::TraceSpan span(tracer, "load_capture", "replay");
      return recovery::load_capture_header(header_path);
    }();
    const recovery::CaptureLog log = recovery::load_capture_log(log_path);
    const ParsedProtocolFile parsed = parse_protocol_file(header.protocol_text);
    const verify::LinearInvariant invariant(header.invariant_name,
                                            header.invariant_weights);
    if (metrics) {
      metrics->add(metrics->counter("replay.events"), log.events.size());
      metrics->add(metrics->counter("replay.faults"),
                   count_faults(log.events));
    }

    std::cout << "capture: " << parsed.name << ", n = " << header.n
              << ", seed = " << header.seed << ", stream = " << header.stream
              << ", rate = " << header.rate << "\n";
    std::cout << "log: " << log.events.size() << " events ("
              << count_faults(log.events) << " faults), invariant '"
              << invariant.name() << "'\n";

    if (args.get_bool("events", false)) {
      for (std::size_t i = 0; i < log.events.size(); ++i) {
        const recovery::ReplayEvent& event = log.events[i];
        std::cout << "  [" << i << "] " << to_string(event.kind) << " "
                  << event.a << " " << event.b;
        if (event.flags != 0) std::cout << " flags=" << int(event.flags);
        std::cout << "\n";
      }
    }

    const recovery::ReplayResult replayed = [&] {
      obs::TraceSpan span(tracer, "replay", "replay");
      return recovery::replay_events(parsed.protocol, invariant,
                                     header.initial, log.events);
    }();
    print_outcome("recorded", log.outcome);
    print_outcome("replayed", replayed.outcome());
    if (!replayed.feasible) {
      std::cerr << "replay infeasible at event " << replayed.infeasible_event
                << ": " << replayed.infeasible_reason << "\n";
      write_obs();
      return 1;
    }
    if (!replayed.matches(log.outcome)) {
      std::cerr << "replay DIVERGED from the recorded outcome\n";
      write_obs();
      return 1;
    }
    std::cout << "replay matches the recorded outcome bit-exactly\n";

    if (!args.get_bool("shrink", false)) {
      write_obs();
      return 0;
    }

    const Output correct =
        correct_output_of(parsed.protocol, header.initial);
    recovery::ShrinkTarget target;
    target.require_violation = log.outcome.violated;
    target.require_wrong_decision =
        log.outcome.status == RunStatus::kConverged &&
        log.outcome.decided != correct;
    target.correct_output = correct;
    if (!target.require_violation && !target.require_wrong_decision) {
      std::cerr << "--shrink: the recorded run neither violated the "
                   "invariant nor decided wrongly; nothing to minimize\n";
      write_obs();
      return 2;
    }
    std::cout << "shrinking for:"
              << (target.require_violation ? " invariant-violation" : "")
              << (target.require_wrong_decision ? " wrong-decision" : "")
              << "\n";

    recovery::ShrinkStats stats;
    const std::vector<recovery::ReplayEvent> minimized = [&] {
      obs::TraceSpan span(tracer, "shrink", "replay");
      return recovery::shrink_fault_schedule(parsed.protocol, invariant,
                                             header.initial, log.events,
                                             target, &stats);
    }();
    std::cout << "minimized " << stats.original_faults << " fault events to "
              << stats.minimized_faults << " in " << stats.probes
              << " replays\n";
    if (metrics) {
      metrics->add(metrics->counter("shrink.probes"), stats.probes);
      metrics->add(metrics->counter("shrink.original_faults"),
                   stats.original_faults);
      metrics->add(metrics->counter("shrink.minimized_faults"),
                   stats.minimized_faults);
    }

    // Re-verify and persist: the minimized capture must itself reproduce.
    const recovery::ReplayResult minimal_replay = [&] {
      obs::TraceSpan span(tracer, "verify_minimized", "replay");
      return recovery::replay_events(parsed.protocol, invariant,
                                     header.initial, minimized);
    }();
    if (!target.reproduced_by(minimal_replay)) {
      std::cerr << "internal error: minimized schedule does not reproduce\n";
      write_obs();
      return 1;
    }
    print_outcome("minimized", minimal_replay.outcome());

    const std::string prefix = args.get_string("out", log_path + ".min");
    recovery::CaptureLog minimized_log;
    minimized_log.events = minimized;
    minimized_log.outcome = minimal_replay.outcome();
    recovery::save_capture_files(prefix + ".header.pbsn", prefix + ".log.pbsn",
                                 header, minimized_log);
    std::cout << "minimized capture written to " << prefix << ".header.pbsn + "
              << prefix << ".log.pbsn\n";
    write_obs();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "popbean-replay: " << e.what() << "\n";
    return 2;
  }
}
