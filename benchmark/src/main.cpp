// l2l_bench: the end-to-end benchmark binary.
//
//   l2l_bench --workload <semester-real|flow-designs>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--toy] [--corrupt <score|routing>]
//
// Pins its own environment (threads, obs, cache) instead of inheriting
// the caller's, builds the workload's inputs from the seed, measures for
// --seconds, checks every output, and prints a metric table followed by
// one JSON line:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 when every check passed, 1 when one failed, 2 on usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "cache/cache.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The per-layer metrics in print order, with their units; BENCHMARK.json
/// lists the same names (benchmark/selftest.py checks it).
const MetricSpec kPerLayer[] = {
    {"grader.route.calls", "count"},
    {"grader.route.busy_ms", "ms"},
    {"grader.route.call_p50_us", "us"},
    {"grader.place.calls", "count"},
    {"grader.place.busy_ms", "ms"},
    {"grader.place.call_p50_us", "us"},
    {"espresso.calls", "count"},
    {"espresso.busy_ms", "ms"},
    {"sat.calls", "count"},
    {"sat.busy_ms", "ms"},
    {"sema.calls", "count"},
    {"sema.busy_ms", "ms"},
    {"sema.rejects", "count"},
    {"cache.lookups", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.inserts", "count"},
    {"cache.entries", "count"},
    {"cache.bytes", "bytes"},
    {"mooc.drain_ms", "ms"},
    {"mooc.merge_ms", "ms"},
    {"mooc.callback_union_ms", "ms"},
    {"mooc.self_ms", "ms"},
    {"mooc.ticks", "count"},
    {"mooc.arrivals", "count"},
    {"mooc.graded", "count"},
    {"mooc.rejected", "count"},
    {"mooc.shed", "count"},
    {"mooc.dedup_hits", "count"},
    {"mooc.dedup_ratio", "ratio"},
    {"mooc.batch_size_mean", "count"},
    {"parallel.grade_concurrency", "ratio"},
    {"journal.bytes", "bytes"},
    {"journal.scan_ms", "ms"},
    {"journal.ticks", "count"},
    {"flow.run_ms", "ms"},
    {"flow.stage_sum_ms", "ms"},
    {"flow.synthesis_ms", "ms"},
    {"flow.mapping_ms", "ms"},
    {"flow.placement_ms", "ms"},
    {"flow.routing_ms", "ms"},
    {"flow.timing_ms", "ms"},
    {"route.expansions", "count"},
    {"mls.literals_before", "count"},
    {"mls.literals_after", "count"},
    {"place.hpwl", "units"},
    {"obs.overhead_pct", "%"},
};

}  // namespace

void LayerValues::set(const std::string& name, double value) {
  for (auto& [n, v] : values)
    if (n == name) {
      v = value;
      return;
    }
  values.emplace_back(name, value);
}

void LayerValues::emit(Report& report) const {
  for (const MetricSpec& spec : kPerLayer) {
    double value = 0.0;
    for (const auto& [n, v] : values)
      if (n == spec.name) value = v;
    report.add(spec.name, value, spec.unit);
  }
  for (const auto& [n, v] : values) {
    bool known = false;
    for (const MetricSpec& spec : kPerLayer) known |= n == spec.name;
    if (!known) report.fail("unlisted per-layer metric " + n);
  }
}

double overhead_pct(double untraced_per_s, double traced_per_s) {
  if (traced_per_s <= 0.0) return 0.0;
  return (untraced_per_s / traced_per_s - 1.0) * 100.0;
}

CacheMark cache_mark() {
  const auto s = l2l::cache::Cache::global().stats();
  return {s.hits, s.misses, s.inserts};
}

void set_cache_layer(LayerValues& lv, const CacheMark& mark) {
  const auto s = l2l::cache::Cache::global().stats();
  const auto hits = s.hits - mark.hits;
  const auto lookups = hits + s.misses - mark.misses;
  lv.set("cache.lookups", static_cast<double>(lookups));
  lv.set("cache.hit_ratio", lookups > 0 ? static_cast<double>(hits) /
                                              static_cast<double>(lookups)
                                        : 0.0);
  lv.set("cache.inserts", static_cast<double>(s.inserts - mark.inserts));
  lv.set("cache.entries", static_cast<double>(s.entries));
  lv.set("cache.bytes", static_cast<double>(s.bytes));
}

double median_served(const std::vector<PassFigures>& passes) {
  std::vector<double> served;
  for (const auto& f : passes) served.push_back(f.served_per_s);
  return median(served);
}

void emit_end_to_end(const std::vector<PassFigures>& passes, const EndToEnd& e,
                     Report& report) {
  std::vector<double> p50, p90;
  std::size_t samples = 0;
  for (const auto& f : passes) {
    p50.push_back(f.p50_ms);
    p90.push_back(f.p90_ms);
    samples = f.samples;
  }
  report.add("setup_s", e.setup_s, "s");
  report.add("served_per_s", median_served(passes), "1/s");
  report.add("latency_p50_ms", median(p50), "ms");
  report.add("latency_p90_ms", median(p90), "ms");
  report.add("ok_ratio", e.ok_ratio, "ratio");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("qor_wirelength", e.qor_wirelength, "cells");
  report.add("qor_delay", e.qor_delay, "units");
  const auto beyond_p90 = samples - static_cast<std::size_t>(
                                        std::ceil(0.9 * static_cast<double>(samples)));
  report.note("passes " + std::to_string(passes.size()) +
              "; latency samples per pass " + std::to_string(samples) + " (" +
              std::to_string(beyond_p90) + " beyond p90)");
}

}  // namespace bench

namespace {

int usage(const std::string& why) {
  std::cerr << "l2l_bench: " << why
            << "\nusage: l2l_bench --workload <semester-real|flow-designs> "
               "--seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--toy] [--corrupt score|routing]\n";
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) try {
  bench::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") return usage("--trace wants 0 or 1");
      opt.trace = t == "1";
      have_trace = true;
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else if (a == "--toy") {
      opt.toy = true;
    } else if (a == "--corrupt") {
      opt.corrupt = value();
      if (opt.corrupt != "score" && opt.corrupt != "routing")
        return usage("--corrupt wants score or routing");
    } else {
      return usage("unknown argument " + a);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  // The pinned environment: fixed threads, obs off outside traced
  // passes, the in-memory result cache on with no disk tier.
  l2l::util::set_num_threads(bench::kThreads);
  l2l::obs::set_enabled(false);
  l2l::cache::set_enabled(true);
  l2l::cache::Cache::global().set_disk_dir("");
  l2l::cache::Cache::global().clear();

  bench::Report report;
  if (opt.workload == "semester-real")
    report = bench::run_semester_real(opt);
  else if (opt.workload == "flow-designs")
    report = bench::run_flow_designs(opt);
  else
    return usage("unknown workload " + opt.workload);

  for (const auto& m : report.metrics)
    if (!std::isfinite(m.value)) report.fail("metric " + m.name + " is not finite");

  for (const auto& line : report.notes) std::cout << "# " << line << "\n";
  for (const auto& m : report.metrics)
    std::cout << "# " << m.name << " " << json_number(m.value) << " " << m.unit
              << "\n";
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << json_number(std::isfinite(m.value) ? m.value : 0.0)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return report.correct ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "l2l_bench: " << e.what() << "\n";
  return 1;
}
