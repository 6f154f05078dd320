// flow-designs: the second end-to-end path, logic to layout without the
// MOOC service. A seeded set of distinct designs is written as BLIF text
// and parsed back (the program receives only the text), then each design
// runs through flow::run_flow. Every result is checked outside the
// timed interval: flow status, the route grader's verdict on the flow's
// own routing, placement legality, and a SAT-miter equivalence check of
// the mapped netlist against the input.

#include <cstddef>
#include <exception>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "flow/flow.hpp"
#include "gen/function_gen.hpp"
#include "grader/route_grader.hpp"
#include "network/blif.hpp"
#include "network/equivalence.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "place/legalize.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using namespace l2l;

/// The design set: a fixed mix of shapes in a size band where each
/// design takes milliseconds to a few hundred milliseconds, the random
/// networks drawn from the seed. Structured designs come once each, so
/// no two designs share a cache key.
std::vector<std::string> design_blifs(const Options& opt) {
  std::vector<network::Network> nets;
  if (!opt.toy) {
    for (int bits = 6; bits <= 9; ++bits) nets.push_back(gen::parity_network(bits));
    for (int sel = 2; sel <= 3; ++sel) nets.push_back(gen::mux_network(sel));
    for (int bits = 1; bits <= 2; ++bits) nets.push_back(gen::adder_network(bits));
  }
  // Random networks mostly collapse under synthesis, so flow time follows
  // the surviving logic, not the node count. Many outputs over narrow
  // single-cube nodes keep enough logic alive that designs take ~4-120 ms
  // (routing dominates) instead of 0.3-500 ms, and 240 of them hold the
  // seed-to-seed spread of the set's total near 4%.
  gen::NetworkGenOptions g;
  g.num_inputs = 12;
  g.num_outputs = opt.toy ? 4 : 12;
  g.num_nodes = opt.toy ? 12 : 30;
  g.max_arity = 2;
  g.max_cubes = 1;
  util::Rng rng(opt.seed);
  for (int i = 0; i < (opt.toy ? 6 : 240); ++i)
    nets.push_back(gen::random_network(g, rng));
  std::vector<std::string> blifs;
  for (const auto& n : nets) blifs.push_back(network::write_blif(n));
  return blifs;
}

/// One design's checks and QoR. Returns false when any check fails.
bool check_design(const network::Network& input, const flow::FlowResult& res,
                  double& wirelength, double& delay) {
  if (!res.status.ok()) return false;
  const auto grade = grader::grade_routing(res.routing_problem, res.routing);
  wirelength = grade.total_wirelength;
  delay = res.timing.critical_delay;
  if (grade.score != 100.0) return false;
  if (!place::is_legal(res.placement, res.grid)) return false;
  try {
    return network::check_equivalence(input, res.mapped.netlist,
                                      network::EquivalenceMethod::kSat)
        .equivalent;
  } catch (const std::exception&) {
    return false;  // interface mismatch
  }
}

/// Self-test fault: cut one routed net by removing a middle cell.
void corrupt_routing(flow::FlowResult& res) {
  for (auto& net : res.routing.nets)
    if (net.routed && net.cells.size() >= 3) {
      net.cells.erase(net.cells.begin() +
                      static_cast<std::ptrdiff_t>(net.cells.size() / 2));
      return;
    }
}

}  // namespace

Report run_flow_designs(const Options& opt) {
  Report report;
  std::vector<network::Network> designs;
  auto build = [&] {
    designs.clear();
    for (const auto& text : design_blifs(opt))
      designs.push_back(network::parse_blif(text));
  };
  // One set-up is ~25 ms, so each timed interval holds twenty of them.
  const int setup_reps = opt.toy ? 1 : 20;
  SetupTimer setup_timer;
  for (int g = 0; g < 3; ++g) setup_timer.time(setup_reps, build);

  const flow::FlowOptions fopt;
  std::vector<double> first_wl(designs.size(), -1.0), first_delay(designs.size());
  double qor_wl = 0.0, qor_delay = 0.0;
  std::int64_t ok = 0, attempts = 0;
  std::vector<PassFigures> passes;

  auto one_pass = [&](bool traced) {
    cache::Cache::global().clear();
    set_tracing(traced);
    const CacheMark mark = cache_mark();
    std::vector<double> lat_ms;
    double busy_s = 0.0, lits_before = 0.0, lits_after = 0.0, hpwl = 0.0;
    double wl_sum = 0.0, delay_sum = 0.0;
    for (std::size_t d = 0; d < designs.size(); ++d) {
      const auto t0 = Clock::now();
      flow::FlowResult res = flow::run_flow(designs[d], fopt);
      const double s = seconds_between(t0, Clock::now());
      busy_s += s;
      lat_ms.push_back(s * 1e3);
      lits_before += res.literals_before;
      lits_after += res.literals_after;
      hpwl += res.hpwl;

      // Oracle, outside the timed interval. QoR must repeat exactly
      // from pass to pass.
      if (opt.corrupt == "routing" && d == 0) corrupt_routing(res);
      double wl = 0.0, delay = 0.0;
      bool good = check_design(designs[d], res, wl, delay);
      if (first_wl[d] < 0) {
        first_wl[d] = wl;
        first_delay[d] = delay;
      } else if (wl != first_wl[d] || delay != first_delay[d]) {
        good = false;
      }
      wl_sum += wl;
      delay_sum += delay;
      ok += good ? 1 : 0;
      ++attempts;
    }
    qor_wl = wl_sum;
    qor_delay = delay_sum;

    LayerValues lv;
    if (traced) {
      const std::string spans = obs::Tracer::global().text();
      double stage_ms = 0.0;
      for (const char* stage :
           {"synthesis", "mapping", "placement", "routing", "timing"}) {
        const double ms =
            static_cast<double>(
                span_sum(spans, std::string("flow.stage.") + stage).total_us) /
            1e3;
        lv.set(std::string("flow.") + stage + "_ms", ms);
        stage_ms += ms;
      }
      lv.set("flow.run_ms", busy_s * 1e3);
      lv.set("flow.stage_sum_ms", stage_ms);
      // Reconciliation: the stage spans tile run_flow, so their sum must
      // come within a few percent of the run_flow time measured outside.
      if (stage_ms < busy_s * 1e3 * 0.95 || stage_ms > busy_s * 1e3 * 1.001)
        report.fail("flow.stage.* spans do not reconcile with run_flow time");
      const auto snap = obs::Registry::global().snapshot();
      if (auto it = snap.counters.find("route.expansions"); it != snap.counters.end())
        lv.set("route.expansions", static_cast<double>(it->second));
      lv.set("mls.literals_before", lits_before);
      lv.set("mls.literals_after", lits_after);
      lv.set("place.hpwl", hpwl);
      set_cache_layer(lv, mark);
      if (auto it = snap.counters.find("obs.trace.dropped");
          it != snap.counters.end() && it->second > 0)
        report.fail("the tracer dropped spans");
    }
    set_tracing(false);

    PassFigures f;
    f.samples = lat_ms.size();
    f.served_per_s = static_cast<double>(designs.size()) / busy_s;
    f.p50_ms = percentile(lat_ms, 50.0);
    f.p90_ms = percentile(lat_ms, 90.0);
    passes.push_back(f);
    // The rebuilt designs are identical (same seed).
    setup_timer.time(setup_reps, build);
    return lv;
  };

  LayerValues layers = drive_passes(opt, passes, one_pass);
  report.attempted = attempts;
  report.failed = attempts - ok;
  if (ok != attempts)
    report.fail("oracle accepted " + std::to_string(ok) + " of " +
                std::to_string(attempts) + " designs");
  if (opt.trace) {
    // Every design is distinct, so nothing may be served from the cache.
    for (const auto& [name, value] : layers.values)
      if (name == "cache.hit_ratio" && value != 0.0)
        report.fail("cache hits on a set of distinct designs");
    layers.emit(report);
  } else {
    EndToEnd e;
    e.setup_s = setup_timer.median_s();
    e.ok_ratio = static_cast<double>(ok) / static_cast<double>(attempts);
    e.qor_wirelength = qor_wl;
    e.qor_delay = qor_delay;
    emit_end_to_end(passes, e, report);
  }
  return report;
}

}  // namespace bench
