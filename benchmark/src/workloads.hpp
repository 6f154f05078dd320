#pragma once
// The two workloads. Each builds its inputs from the seed (timing the
// set-up), measures for Options::seconds, checks every output with an
// independent oracle outside the timed region, and fills the report:
// end-to-end metrics in an untraced run, per-layer metrics in a traced
// run (Options::trace).

#include "layers.hpp"

namespace bench {

/// Threads the benchmark pins for every workload (util::set_num_threads).
inline constexpr int kThreads = 2;

Report run_semester_real(const Options& opt);
Report run_flow_designs(const Options& opt);

// ---- shared by the workloads ------------------------------------------------

/// Per-layer values by name. emit() prints every per-layer metric of the
/// benchmark (main.cpp's kPerLayer), 0 when a workload does not touch the
/// layer, and fails the report on a name that is not in the list.
struct LayerValues {
  void set(const std::string& name, double value);
  void emit(Report& report) const;
  std::vector<std::pair<std::string, double>> values;
};

/// obs.overhead_pct: how much slower the traced passes ran than the
/// untraced ones, in percent of the traced rate.
double overhead_pct(double untraced_per_s, double traced_per_s);

/// The result cache's counters at one instant (cache::Cache::global()).
struct CacheMark {
  std::int64_t hits = 0, misses = 0, inserts = 0;
};
CacheMark cache_mark();
/// cache.* per-layer values: lookups, hits and inserts as deltas since
/// `mark`, entries and bytes as they stand now.
void set_cache_layer(LayerValues& lv, const CacheMark& mark);

/// Run `pass` until `seconds` have elapsed (at least `min_passes` times).
template <class Pass>
void run_passes(double seconds, int min_passes, Pass&& pass) {
  const auto t0 = Clock::now();
  int n = 0;
  do {
    pass();
    ++n;
  } while (n < min_passes || seconds_between(t0, Clock::now()) < seconds);
}

/// One timed pass's end-to-end figures.
struct PassFigures {
  double served_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t samples = 0;
};

double median_served(const std::vector<PassFigures>& passes);

/// The measured loop every workload shares. Untraced: `one_pass(false)`
/// for the whole run. Traced: untraced passes for half the run, then
/// traced passes; the last traced pass's layer values are returned with
/// obs.overhead_pct set. `passes` ends up holding the figures of the
/// passes the run reports on.
template <class OnePass>
LayerValues drive_passes(const Options& opt, std::vector<PassFigures>& passes,
                         OnePass&& one_pass) {
  LayerValues layers;
  if (!opt.trace) {
    run_passes(opt.seconds, 3, [&] { one_pass(false); });
    return layers;
  }
  run_passes(opt.seconds / 2, 2, [&] { one_pass(false); });
  const double untraced = median_served(passes);
  passes.clear();
  run_passes(opt.seconds / 2, 1, [&] { layers = one_pass(true); });
  layers.set("obs.overhead_pct", overhead_pct(untraced, median_served(passes)));
  return layers;
}

/// End-to-end figures measured outside the passes. The QoR metrics stay
/// at 1 on workloads that produce no layout, so every metric is nonzero.
struct EndToEnd {
  double setup_s = 0.0;
  double ok_ratio = 0.0;
  double qor_wirelength = 1.0;
  double qor_delay = 1.0;
};
/// Reports every end-to-end metric: `e`, plus the medians of the per-pass
/// figures, and a note with the passes and latency sample counts.
void emit_end_to_end(const std::vector<PassFigures>& passes, const EndToEnd& e,
                     Report& report);

/// Set-up time. Each time() call runs `setup` `reps` times back to back
/// as one timed interval, which averages out jitter shorter than the
/// interval. The workloads time a few intervals before the first pass and
/// one after every pass, so set-up is sampled across the whole run, as
/// the passes are. median_s() is the median interval over `reps`.
class SetupTimer {
 public:
  template <class Setup>
  void time(int reps, Setup&& setup) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) setup();
    per_setup_s_.push_back(seconds_between(t0, Clock::now()) / reps);
  }
  double median_s() const { return median(per_setup_s_); }

 private:
  std::vector<double> per_setup_s_;
};

}  // namespace bench
