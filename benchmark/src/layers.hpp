#pragma once
// Shared plumbing for the end-to-end benchmark: the run options, the
// result report (metrics by name with units, oracle verdicts), small
// statistics helpers, and the per-layer call log.
//
// The call log is how the traced run splits time across layers without
// touching the program: every call the benchmark makes into a public
// grader/engine function goes through CallLog::timed(), which -- only
// while the log is active -- records the layer, start, end and thread of
// the call. Untimed runs pay one relaxed atomic load per call.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes for the self-test; never used by the measured runs.
  bool toy = false;
  /// Self-test fault injection: "score" (semester-real: one recorded
  /// score is altered before the oracle sees it) or "routing"
  /// (flow-designs: one design's routing loses a cell). Empty = none.
  std::string corrupt;
  /// Scratch directory for journals; removed by the caller.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: every metric by name with its unit, the oracle
/// verdict and the attempt counts.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON (sample counts etc.).
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Marks the run incorrect and explains why on stderr.
  void fail(const std::string& why);
};

/// Nearest-rank percentile (pct in [0, 100]) of `v`; sorts `v` in place.
double percentile(std::vector<double>& v, double pct);
double median(std::vector<double> v);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// ---- per-layer call log ----------------------------------------------------

/// The public entry points the benchmark calls from inside a drain or a
/// flow, one id each.
enum class Layer : std::uint8_t {
  kRouteGrade,  ///< api::grade_route_submission
  kPlaceGrade,  ///< api::grade_place_submission
  kEspresso,    ///< api::minimize_pla
  kSat,         ///< api::solve_sat
  kSema,        ///< mooc::sema_submission_lint (the pre-grade gate)
  kCount,
};

struct Call {
  Layer layer = Layer::kRouteGrade;
  bool flagged = false;  ///< kSema: the gate rejected the body
  std::uint32_t thread = 0;  ///< recording thread, numbered from 0
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class CallLog {
 public:
  static void set_active(bool on) {
    active_.store(on, std::memory_order_relaxed);
  }
  static bool active() { return active_.load(std::memory_order_relaxed); }

  /// Run `fn`, recording the call when the log is active. The flag
  /// function maps the result to Call::flagged.
  template <class Fn, class FlagFn>
  static auto timed(Layer layer, Fn&& fn, FlagFn&& flag) {
    if (!active()) return fn();
    const std::int64_t start = now_ns();
    auto out = fn();
    record(Call{layer, flag(out), 0, start, now_ns()});
    return out;
  }
  template <class Fn>
  static auto timed(Layer layer, Fn&& fn) {
    return timed(layer, std::forward<Fn>(fn),
                 [](const auto&) { return false; });
  }

  /// Every call recorded since the last take(), from all threads. Call
  /// only while no logged call is running.
  static std::vector<Call> take();

 private:
  static void record(const Call& call);
  static std::atomic<bool> active_;
};

/// Total length of the union of the calls' [start, end) intervals, ns.
std::int64_t union_ns(std::vector<Call> calls);

/// One layer's totals over a set of calls.
struct LayerTotals {
  std::int64_t calls = 0;
  std::int64_t flagged = 0;
  double busy_ms = 0.0;
  double call_p50_us = 0.0;
};
LayerTotals layer_totals(const std::vector<Call>& calls, Layer layer);

/// Per-name span totals (count, total microseconds) from the program's
/// own tracer, parsed from obs::Tracer::global().text().
struct SpanSum {
  std::int64_t count = 0;
  std::int64_t total_us = 0;
};
SpanSum span_sum(const std::string& tracer_text, const std::string& name);

/// Turn obs collection and the call log on or off together, clearing the
/// program's tracer and metrics registry when turning them on.
void set_tracing(bool on);

}  // namespace bench
