// popbean-top — fleet dashboard over Prometheus snapshot files.
//
// Tails the exposition file that `popbean-serve --prom-out` rewrites
// atomically, and renders a per-shard table each interval: admission and
// outcome counters, queue occupancy, degradation rung, breaker/quarantine
// state, request rate (counter deltas between frames), and run-latency
// quantiles recovered from the cumulative histogram buckets — with the
// exemplar trace id of the slowest bucket, so an outlier on the dashboard
// points straight at its span tree in the Chrome trace.
//
// The file is re-read and re-parsed every frame (obs::parse_prometheus —
// the same strict parser the CI format check uses), so popbean-top doubles
// as a liveness check on the exposition: a malformed snapshot prints the
// parse error instead of a table. A missing file is not an error — the
// tool waits for the first snapshot to appear.
//
// Flags:
//   --file=PATH         exposition file to tail (required)
//   --interval-ms=MS    refresh period (default 1000)
//   --iterations=N      frames to render, 0 = until interrupted (default 0)
//   --once              exactly one frame, no screen clearing (CI-friendly)
//   --no-clear          never emit ANSI clear codes between frames
//
// Exit status: 0 after the requested frames, 2 on usage errors. Parse
// failures are reported per frame and do not terminate the loop (the
// writer may be mid-rotation), except under --once, where a bad or
// missing snapshot exits 1 so CI can gate on it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/context.hpp"
#include "obs/prom.hpp"
#include "util/cli.hpp"

namespace {

using namespace popbean;
using Clock = std::chrono::steady_clock;

// One parsed frame, indexed for rendering: shard label → metric name →
// value, plus the cumulative run-latency buckets per shard.
struct Frame {
  obs::PromDocument doc;
  std::set<std::string> shards;
  Clock::time_point read_at;

  std::optional<double> value(const std::string& name,
                              const std::string& shard) const {
    for (const auto& sample : doc.samples) {
      if (sample.name != name) continue;
      const auto it = sample.labels.find("shard");
      if (it != sample.labels.end() && it->second == shard) {
        return sample.value;
      }
    }
    return std::nullopt;
  }

  // Cumulative (le, count) pairs of one histogram family for one shard,
  // sorted by le with +Inf last.
  std::vector<std::pair<double, double>> buckets(
      const std::string& bucket_name, const std::string& shard) const {
    std::vector<std::pair<double, double>> out;
    for (const auto& sample : doc.samples) {
      if (sample.name != bucket_name) continue;
      const auto shard_it = sample.labels.find("shard");
      if (shard_it == sample.labels.end() || shard_it->second != shard) {
        continue;
      }
      const auto le_it = sample.labels.find("le");
      if (le_it == sample.labels.end()) continue;
      const double le = le_it->second == "+Inf"
                            ? std::numeric_limits<double>::infinity()
                            : std::stod(le_it->second);
      out.emplace_back(le, sample.value);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

Frame parse_frame(const std::string& text) {
  Frame frame;
  frame.doc = obs::parse_prometheus(text);
  frame.read_at = Clock::now();
  for (const auto& sample : frame.doc.samples) {
    const auto it = sample.labels.find("shard");
    if (it != sample.labels.end()) frame.shards.insert(it->second);
  }
  return frame;
}

// Quantile estimate from cumulative buckets: the upper bound of the first
// bucket whose cumulative count reaches q·total (the standard Prometheus
// histogram_quantile without interpolation — honest about resolution).
std::optional<double> bucket_quantile(
    const std::vector<std::pair<double, double>>& buckets, double q) {
  if (buckets.empty()) return std::nullopt;
  const double total = buckets.back().second;
  if (total <= 0.0) return std::nullopt;
  const double target = q * total;
  for (const auto& [le, count] : buckets) {
    if (count >= target && std::isfinite(le)) return le;
  }
  // Only the +Inf bucket reaches the target: report the largest finite
  // bound (everything beyond it is off the histogram's scale).
  for (auto it = buckets.rbegin(); it != buckets.rend(); ++it) {
    if (std::isfinite(it->first)) return it->first;
  }
  return std::nullopt;
}

std::string fmt(std::optional<double> v, const char* pattern = "%.1f") {
  if (!v.has_value()) return "-";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), pattern, *v);
  return buffer;
}

std::string fmt_count(std::optional<double> v) {
  if (!v.has_value()) return "-";
  return std::to_string(static_cast<std::uint64_t>(*v));
}

void pad(std::ostream& os, const std::string& cell, std::size_t width) {
  os << cell;
  for (std::size_t i = cell.size(); i < width; ++i) os << ' ';
  os << ' ';
}

// Shard sort: numeric shards ascending, then "fleet" (the rollup reads
// best as the table's last row).
std::vector<std::string> ordered_shards(const Frame& frame) {
  std::vector<std::string> numeric;
  bool fleet = false;
  for (const std::string& shard : frame.shards) {
    if (shard == "fleet") {
      fleet = true;
    } else {
      numeric.push_back(shard);
    }
  }
  std::sort(numeric.begin(), numeric.end(),
            [](const std::string& a, const std::string& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  if (fleet) numeric.push_back("fleet");
  return numeric;
}

void render(std::ostream& os, const Frame& frame,
            const std::optional<Frame>& previous, const std::string& path,
            std::uint64_t frame_index) {
  os << "popbean-top — " << path << " (frame " << frame_index << ", "
     << frame.doc.samples.size() << " series)\n\n";

  static const std::vector<std::pair<const char*, std::size_t>> kColumns = {
      {"shard", 6},  {"qps", 8},   {"done", 8},  {"fail", 6},
      {"t/o", 5},    {"shed", 6},  {"queue", 9}, {"infl", 5},
      {"lvl", 4},    {"brk", 4},   {"quar", 5},  {"p50ms", 8},
      {"p99ms", 8}};
  for (const auto& [title, width] : kColumns) pad(os, title, width);
  os << "\n";

  for (const std::string& shard : ordered_shards(frame)) {
    const auto counter = [&](const char* name) {
      return frame.value(std::string(name) + "_total", shard);
    };
    // Rate from the completed-counter delta against the previous frame
    // (fleet included — counters are monotone, so a negative delta means
    // the server restarted and we show "-" for one frame).
    std::optional<double> qps;
    if (previous.has_value()) {
      const auto now_done = counter("popbean_serve_completed");
      const auto then_done =
          previous->value("popbean_serve_completed_total", shard);
      const double dt = std::chrono::duration<double>(frame.read_at -
                                                      previous->read_at)
                            .count();
      if (now_done && then_done && dt > 0.0 && *now_done >= *then_done) {
        qps = (*now_done - *then_done) / dt;
      }
    }
    const auto run_buckets =
        frame.buckets("popbean_serve_run_ms_bucket", shard);
    std::ostringstream queue_cell;
    queue_cell << fmt_count(frame.value("popbean_serve_queue_depth", shard))
               << "/"
               << fmt_count(
                      frame.value("popbean_serve_queue_capacity", shard));

    std::size_t column = 0;
    const auto cell = [&](const std::string& text) {
      pad(os, text, kColumns[column++].second);
    };
    cell(shard);
    cell(fmt(qps));
    cell(fmt_count(counter("popbean_serve_completed")));
    cell(fmt_count(counter("popbean_serve_failed")));
    cell(fmt_count(counter("popbean_serve_timeouts")));
    cell(fmt_count(counter("popbean_serve_shed")));
    cell(queue_cell.str());
    cell(fmt_count(frame.value("popbean_serve_inflight", shard)));
    cell(fmt_count(frame.value("popbean_serve_degradation_level", shard)));
    cell(fmt_count(frame.value("popbean_serve_breakers_open", shard)));
    cell(fmt_count(
        frame.value("popbean_serve_vote_quarantined_families", shard)));
    cell(fmt(bucket_quantile(run_buckets, 0.50), "%.2f"));
    cell(fmt(bucket_quantile(run_buckets, 0.99), "%.2f"));
    os << "\n";
  }

  // Per-family outcome counters (fleet rollup): every
  // popbean_serve_family_<protocol>_<outcome>_total series.
  std::map<std::string, std::vector<std::pair<std::string, double>>> families;
  static const std::string kFamilyPrefix = "popbean_serve_family_";
  for (const auto& sample : frame.doc.samples) {
    if (sample.name.rfind(kFamilyPrefix, 0) != 0) continue;
    if (sample.name.size() < kFamilyPrefix.size() + 7) continue;
    if (sample.name.compare(sample.name.size() - 6, 6, "_total") != 0) {
      continue;
    }
    const auto shard_it = sample.labels.find("shard");
    if (shard_it == sample.labels.end() || shard_it->second != "fleet") {
      continue;
    }
    const std::string stem = sample.name.substr(
        kFamilyPrefix.size(),
        sample.name.size() - kFamilyPrefix.size() - 6);
    const std::size_t split = stem.rfind('_');
    if (split == std::string::npos) continue;
    families[stem.substr(0, split)].emplace_back(stem.substr(split + 1),
                                                 sample.value);
  }
  if (!families.empty()) {
    os << "\nfamilies (fleet):\n";
    for (const auto& [family, outcomes] : families) {
      os << "  " << family << ":";
      for (const auto& [outcome, count] : outcomes) {
        os << " " << outcome << "="
           << static_cast<std::uint64_t>(count);
      }
      os << "\n";
    }
  }

  // The slowest run-latency exemplar on the fleet: the dashboard's direct
  // link into the trace file.
  const obs::PromExemplar* slowest = nullptr;
  for (const auto& exemplar : frame.doc.exemplars) {
    if (exemplar.name != "popbean_serve_run_ms_bucket") continue;
    const auto shard_it = exemplar.labels.find("shard");
    if (shard_it == exemplar.labels.end() || shard_it->second != "fleet") {
      continue;
    }
    if (slowest == nullptr || exemplar.value > slowest->value) {
      slowest = &exemplar;
    }
  }
  if (slowest != nullptr) {
    os << "\nslowest run_ms exemplar: "
       << obs::trace_id_hex(slowest->trace_id) << " (" << slowest->value
       << " ms) — search this id in the trace file\n";
  }
  const auto dropped = frame.value("popbean_obs_trace_events_dropped_total",
                                   "fleet");
  if (dropped.has_value() && *dropped > 0.0) {
    os << "warning: " << static_cast<std::uint64_t>(*dropped)
       << " trace events dropped (ring full — raise --trace-cap)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.check_known(
        {"file", "interval-ms", "iterations", "once", "no-clear"});
    const std::string path = args.get_string("file", "");
    if (path.empty()) {
      throw std::runtime_error("flag --file is required");
    }
    const std::uint64_t interval_ms = args.get_uint64("interval-ms", 1000);
    const bool once = args.get_bool("once", false);
    std::uint64_t iterations = args.get_uint64("iterations", 0);
    if (once) iterations = 1;
    const bool clear = !once && !args.get_bool("no-clear", false);

    std::optional<Frame> previous;
    std::uint64_t frame_index = 0;
    while (iterations == 0 || frame_index < iterations) {
      std::ifstream in(path);
      if (!in) {
        if (once) {
          std::cerr << "popbean-top: cannot open " << path << "\n";
          return 1;
        }
        std::cout << "popbean-top: waiting for " << path << "…\n";
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
        continue;
      }
      std::ostringstream text;
      text << in.rdbuf();
      ++frame_index;
      try {
        Frame frame = parse_frame(text.str());
        std::ostringstream screen;
        render(screen, frame, previous, path, frame_index);
        if (clear) std::cout << "\x1b[2J\x1b[H";
        std::cout << screen.str() << std::flush;
        previous = std::move(frame);
      } catch (const std::exception& e) {
        // Mid-rotation or malformed snapshot: report, keep tailing. Under
        // --once this is a hard failure so CI can gate on parseability.
        if (once) {
          std::cerr << "popbean-top: " << e.what() << "\n";
          return 1;
        }
        std::cout << "popbean-top: snapshot unreadable (" << e.what()
                  << "), retrying…\n";
      }
      if (iterations != 0 && frame_index >= iterations) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "popbean-top: " << e.what() << "\n";
    return 2;
  }
}
