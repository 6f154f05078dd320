// semester-real: a generated submission trace drained through
// mooc::GradingService, open loop (arrivals are a fixed schedule in ticks
// and never wait for grades). The trace is drained the way the service is
// deployed: four consistent-hash shards run one after another, each
// journaling every decision to a fresh file, then merge_sharded. Its 8
// courses' uploads are real artifacts -- route solutions, placements, PLA
// and CNF portal jobs -- graded by the public api:: graders behind the
// sema pre-grade gate, so grading carries the drain.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/espresso.hpp"
#include "api/grade.hpp"
#include "api/place.hpp"
#include "api/route.hpp"
#include "api/sat.hpp"
#include "cache/cache.hpp"
#include "cache/digest.hpp"
#include "gen/placement_gen.hpp"
#include "gen/routing_gen.hpp"
#include "grader/place_grader.hpp"
#include "mooc/cohort.hpp"
#include "mooc/grading_service.hpp"
#include "mooc/journal.hpp"
#include "mooc/shard_map.hpp"
#include "mooc/submission_lint.hpp"
#include "obs/metrics.hpp"
#include "route/solution.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using namespace l2l;
using mooc::Disposition;
namespace fs = std::filesystem;

constexpr int kShards = 4;

// ---- the sharded, journaled drain ----------------------------------------------

struct ShardedDrain {
  std::vector<mooc::ServiceResult> parts;  ///< one per shard
  mooc::ServiceResult merged;
  std::vector<std::string> journals;       ///< one per shard
  double drain_s = 0.0;                    ///< the shard runs
  double merge_s = 0.0;                    ///< merge_sharded
};

/// Drains `trace` as kShards shards run one after another, each
/// journaling to a fresh file under `dir`, then merges the parts.
ShardedDrain drain_sharded(const mooc::SubmissionTrace& trace,
                           const mooc::ServiceOptions& base,
                           const mooc::GradeFn& grade, const fs::path& dir,
                           const mooc::ShardMap& map, Report& report) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  ShardedDrain d;
  for (int shard = 0; shard < kShards; ++shard) {
    mooc::ServiceOptions sopt = base;
    sopt.num_shards = kShards;
    sopt.shard = shard;
    const mooc::GradingService service(sopt, grade);
    mooc::RunRequest req;
    req.journal_path = (dir / ("shard-" + std::to_string(shard) + ".l2lj")).string();
    d.journals.push_back(req.journal_path);
    util::Status st;
    const auto t0 = Clock::now();
    d.parts.push_back(service.run(trace, req, st));
    d.drain_s += seconds_between(t0, Clock::now());
    if (!st.ok()) report.fail("shard " + std::to_string(shard) + ": " + st.to_string());
  }
  util::Status st;
  const auto t0 = Clock::now();
  d.merged = mooc::merge_sharded(trace, map, d.parts, st);
  d.merge_s = seconds_between(t0, Clock::now());
  if (!st.ok()) report.fail("merge_sharded: " + st.to_string());
  return d;
}

/// Oracle of the drain itself: the accounting identity after the merge, one outcome per event, and each shard's journal a complete run
/// with exactly the ticks that shard ran. Sets journal.* in `lv`.
void check_drain(const ShardedDrain& d, std::size_t events, Report& report,
                 LayerValues& lv) {
  if (!d.merged.accounting_ok())
    report.fail("accounting identity admitted + rejected + shed == arrivals");
  if (d.merged.outcomes.size() != events ||
      d.merged.stats.arrivals != static_cast<std::int64_t>(events))
    report.fail("one outcome per trace event");
  double scan_ms = 0.0, bytes = 0.0, ticks = 0.0;
  for (int shard = 0; shard < kShards; ++shard) {
    const auto& path = d.journals[static_cast<std::size_t>(shard)];
    bytes += static_cast<double>(fs::file_size(path));
    const auto t0 = Clock::now();
    const auto scan = mooc::scan_journal(path);
    scan_ms += seconds_between(t0, Clock::now()) * 1e3;
    if (!scan.found || !scan.run_complete || scan.torn_bytes != 0 ||
        static_cast<std::int64_t>(scan.ticks.size()) !=
            d.parts[static_cast<std::size_t>(shard)].stats.ticks ||
        scan.header.shard != static_cast<std::uint32_t>(shard) ||
        scan.header.num_shards != static_cast<std::uint32_t>(kShards))
      report.fail("journal of shard " + std::to_string(shard) +
                  " is not a complete run of its ticks");
    ticks += static_cast<double>(scan.ticks.size());
  }
  lv.set("journal.bytes", bytes);
  lv.set("journal.scan_ms", scan_ms);
  lv.set("journal.ticks", ticks);
}

bool is_admitted(Disposition d) {
  return d != Disposition::kRejectedQuota &&
         d != Disposition::kRejectedFull && d != Disposition::kShed;
}

/// One pass's end-to-end figures. served_per_s counts every event (each
/// reaches a terminal outcome) per second of shard runs plus merge.
/// Latency of each admitted upload runs from the start of its arrival
/// tick to the end of the tick that decided it, summed over the owning
/// shard's ServiceResult::tick_duration_us.
PassFigures pass_figures(const mooc::SubmissionTrace& trace,
                         const ShardedDrain& d, const mooc::ShardMap& map) {
  std::vector<std::vector<std::int64_t>> prefix(d.parts.size());
  for (std::size_t s = 0; s < d.parts.size(); ++s) {
    const auto& ticks = d.parts[s].tick_duration_us;
    prefix[s].assign(ticks.size() + 1, 0);
    for (std::size_t t = 0; t < ticks.size(); ++t)
      prefix[s][t + 1] = prefix[s][t] + ticks[t];
  }
  std::vector<double> lat_ms;
  lat_ms.reserve(trace.events.size());
  const auto& outcomes = d.merged.outcomes;
  for (std::size_t id = 0; id < trace.events.size() && id < outcomes.size(); ++id) {
    const auto& out = outcomes[id];
    if (!is_admitted(out.disposition)) continue;
    const auto& ev = trace.events[id];
    const auto shard = static_cast<std::size_t>(map.shard_for_course(ev.course));
    if (shard >= prefix.size()) continue;
    const auto& p = prefix[shard];
    const std::size_t end = std::min<std::size_t>(out.final_tick + 1, p.size() - 1);
    const std::size_t begin = std::min<std::size_t>(ev.arrival_tick, end);
    lat_ms.push_back(static_cast<double>(p[end] - p[begin]) / 1e3);
  }
  PassFigures f;
  f.samples = lat_ms.size();
  f.served_per_s = static_cast<double>(trace.events.size()) / (d.drain_s + d.merge_s);
  f.p50_ms = percentile(lat_ms, 50.0);
  f.p90_ms = percentile(lat_ms, 90.0);
  return f;
}

/// mooc.* counts of the merged result.
void set_service_layer(LayerValues& lv, const mooc::ServiceResult& res) {
  const auto& s = res.stats;
  lv.set("mooc.ticks", static_cast<double>(s.ticks));
  lv.set("mooc.arrivals", static_cast<double>(s.arrivals));
  lv.set("mooc.graded", static_cast<double>(s.graded));
  lv.set("mooc.rejected", static_cast<double>(s.rejected()));
  lv.set("mooc.shed", static_cast<double>(s.shed));
  lv.set("mooc.dedup_hits", static_cast<double>(s.dedup_hits));
  lv.set("mooc.dedup_ratio",
         s.admitted > 0 ? static_cast<double>(s.dedup_hits) /
                              static_cast<double>(s.admitted)
                        : 0.0);
  const auto snap = obs::Registry::global().snapshot();
  if (auto it = snap.histograms.find("mooc.service.batch_size");
      it != snap.histograms.end() && it->second.count > 0)
    lv.set("mooc.batch_size_mean", static_cast<double>(it->second.sum) /
                                       static_cast<double>(it->second.count));
}

/// Call-log layers of one traced drain: per-layer busy time, the union
/// of callback intervals, and the drain's self time.
void set_callback_layers(LayerValues& lv, const std::vector<Call>& calls,
                         double drain_ms, Report& report) {
  const struct {
    Layer layer;
    const char* prefix;
    bool p50;
  } layers[] = {{Layer::kRouteGrade, "grader.route", true},
                {Layer::kPlaceGrade, "grader.place", true},
                {Layer::kEspresso, "espresso", false},
                {Layer::kSat, "sat", false},
                {Layer::kSema, "sema", false}};
  double busy_ms = 0.0;
  for (const auto& l : layers) {
    const LayerTotals t = layer_totals(calls, l.layer);
    const std::string p = l.prefix;
    lv.set(p + ".calls", static_cast<double>(t.calls));
    lv.set(p + ".busy_ms", t.busy_ms);
    if (l.p50) lv.set(p + ".call_p50_us", t.call_p50_us);
    if (l.layer == Layer::kSema) lv.set("sema.rejects", static_cast<double>(t.flagged));
  }
  for (const Call& c : calls)
    busy_ms += static_cast<double>(c.end_ns - c.start_ns) / 1e6;
  const double union_ms = static_cast<double>(union_ns(calls)) / 1e6;
  lv.set("mooc.drain_ms", drain_ms);
  lv.set("mooc.callback_union_ms", union_ms);
  lv.set("mooc.self_ms", drain_ms - union_ms);
  lv.set("parallel.grade_concurrency", union_ms > 0 ? busy_ms / union_ms : 0.0);
  // Reconciliation: callbacks ran inside the drains, so their union
  // cannot exceed the drain wall time.
  if (union_ms > drain_ms * 1.001)
    report.fail("callback union exceeds the drain wall time");
}

// ---- semester-real -------------------------------------------------------------

enum class Kind { kRoute, kPlace, kPla, kCnf };
const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kRoute: return "route";
    case Kind::kPlace: return "place";
    case Kind::kPla: return "pla";
    case Kind::kCnf: return "cnf";
  }
  return "?";
}

struct RealSizes {
  int students, bodies_per_course;
  int route_side, route_nets, route_pins;
  int place_cells;
  int pla_vars, pla_cubes;
  int cnf_vars;
  int service_rate;
};

/// 1024 bodies per course keep first uploads arriving all semester, so
/// the median upload waits on a tick that grades something (~5 ms). With
/// 256 bodies every body is seen by the second deadline, and the median
/// lands on ~0.15 ms replay-only ticks whose time swung 24% run to run.
RealSizes real_sizes(bool toy) {
  if (toy) return {1500, 16, 24, 8, 2, 60, 6, 8, 20, 4096};
  return {40000, 1024, 40, 20, 3, 200, 8, 16, 40, 4096};
}

/// One course's assignment: the problem every upload is graded against.
struct Course {
  Kind kind = Kind::kRoute;
  gen::RoutingProblem route;
  cache::Digest128 route_digest;
  gen::PlacementProblem place;
  place::Grid grid;
  cache::Digest128 place_digest;
  double reference_hpwl = 0.0;
};

struct RealSetup {
  mooc::SubmissionTrace trace;
  std::vector<Course> courses;
  std::vector<bool> defective;  ///< per body: the sema gate must reject it
};

std::string pla_text(const RealSizes& z, util::Rng& rng, bool defective) {
  std::vector<std::string> rows;
  for (int r = 0; r < z.pla_cubes; ++r) {
    std::string in;
    for (int v = 0; v < z.pla_vars; ++v) in.push_back("01-"[rng.next_below(3)]);
    rows.push_back(in);
  }
  std::string text = ".i " + std::to_string(z.pla_vars) + "\n.o 1\n.type fr\n";
  for (const auto& in : rows) text += in + " 1\n";
  // Defect: an OFF row overlapping an ON row (sema L2L-P102, an error).
  if (defective) text += rows.front() + " 0\n";
  return text + ".e\n";
}

std::string cnf_text(const RealSizes& z, util::Rng& rng, bool defective) {
  const int m = z.cnf_vars * 4;
  std::string clauses;
  for (int c = 0; c < m; ++c) {
    int a = 0, b = 0, d = 0;
    while (a == b || a == d || b == d) {
      a = 1 + static_cast<int>(rng.next_below(z.cnf_vars));
      b = 1 + static_cast<int>(rng.next_below(z.cnf_vars));
      d = 1 + static_cast<int>(rng.next_below(z.cnf_vars));
    }
    for (const int v : {a, b, d})
      clauses += std::to_string(rng.next_bool() ? v : -v) + " ";
    clauses += "0\n";
  }
  // Defect: contradictory unit clauses (sema L2L-C104, an error).
  if (defective) clauses += "1 0\n-1 0\n";
  return "p cnf " + std::to_string(z.cnf_vars) + " " +
         std::to_string(m + (defective ? 2 : 0)) + "\n" + clauses;
}

/// Builds the trace and swaps its pooled bodies for real artifacts:
/// partial-credit route solutions (nets dropped from a routed reference),
/// perturbed placements (cells swapped in a legal reference), and PLA/CNF
/// jobs of which every eighth is defective.
RealSetup build_real(const Options& opt, const RealSizes& z) {
  RealSetup s;
  mooc::TraceOptions topt;
  topt.num_students = z.students;
  topt.num_courses = 8;
  topt.unique_bodies_per_course = z.bodies_per_course;
  util::Rng trace_rng(opt.seed);
  s.trace = mooc::generate_submission_trace(topt, trace_rng);

  util::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 17);
  s.courses.resize(8);
  s.defective.assign(s.trace.bodies.size(), false);
  for (int c = 0; c < 8; ++c) {
    Course& course = s.courses[static_cast<std::size_t>(c)];
    course.kind = static_cast<Kind>(c % 4);
    route::RouteSolution ref_route;
    place::GridPlacement ref_place;
    if (course.kind == Kind::kRoute) {
      gen::RoutingGenOptions ro;
      ro.width = ro.height = z.route_side;
      ro.num_nets = z.route_nets;
      ro.max_pins_per_net = z.route_pins;
      course.route = gen::generate_routing(ro, rng);
      course.route_digest = api::routing_problem_digest(course.route);
      api::RouteRequest rreq;
      rreq.use_cache = false;
      ref_route = api::route_nets(course.route, rreq).solution;
    } else if (course.kind == Kind::kPlace) {
      gen::PlacementGenOptions po;
      po.num_cells = z.place_cells;
      course.place = gen::generate_placement(po, rng);
      const int side = static_cast<int>(std::ceil(std::sqrt(z.place_cells * 1.25)));
      course.grid = place::Grid{side, side, course.place.width, course.place.height};
      course.place_digest = api::placement_problem_digest(course.place);
      api::PlaceRequest preq;
      preq.grid = course.grid;
      preq.use_cache = false;
      const auto placed = api::place_and_legalize(course.place, preq);
      ref_place = placed.placement;
      course.reference_hpwl = placed.hpwl;
    }
    for (int b = 0; b < z.bodies_per_course; ++b) {
      const std::size_t id = static_cast<std::size_t>(c * z.bodies_per_course + b);
      std::string artifact;
      switch (course.kind) {
        case Kind::kRoute: {
          // Drop 0-3 nets: a quarter of the uploads are the full
          // solution, byte-identical under different variant headers.
          auto sol = ref_route;
          const auto drops = rng.next_below(4);
          for (std::uint64_t k = 0; k < drops && !sol.nets.empty(); ++k) {
            auto& net = sol.nets[rng.next_below(sol.nets.size())];
            net.routed = false;
            net.cells.clear();
          }
          artifact = route::write_solution(sol);
          break;
        }
        case Kind::kPlace: {
          auto gp = ref_place;
          const auto swaps = rng.next_below(6);
          for (std::uint64_t k = 0; k < swaps; ++k) {
            const auto i = rng.next_below(gp.col.size());
            const auto j = rng.next_below(gp.col.size());
            std::swap(gp.col[i], gp.col[j]);
            std::swap(gp.row[i], gp.row[j]);
          }
          artifact = grader::write_placement_text(gp);
          break;
        }
        case Kind::kPla:
          s.defective[id] = b % 8 == 5;
          artifact = pla_text(z, rng, s.defective[id]);
          break;
        case Kind::kCnf:
          s.defective[id] = b % 8 == 5;
          artifact = cnf_text(z, rng, s.defective[id]);
          break;
      }
      s.trace.bodies[id] = "course " + std::to_string(c) + " " +
                           kind_name(course.kind) + " variant " +
                           std::to_string(b) + "\n" + artifact;
    }
  }
  return s;
}

int count_cube_lines(const std::string& pla) {
  int n = 0;
  std::size_t pos = 0;
  while (pos < pla.size()) {
    const std::size_t nl = pla.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? pla.size() : nl;
    if (end > pos && pla[pos] != '.' && pla[pos] != '#') ++n;
    pos = end + 1;
  }
  return n;
}

/// The GradeFn body: dispatch on the upload's course header to the
/// course's public grader. Scores: route/place grader scores; PLA = cube
/// count of the minimized cover; CNF = 100 satisfiable, 50 unsatisfiable.
double grade_real(const RealSetup& s, const std::string& body, bool use_cache) {
  const std::size_t nl = body.find('\n');
  if (body.rfind("course ", 0) != 0 || nl == std::string::npos)
    throw std::invalid_argument("upload without a course header");
  const auto c = std::strtoul(body.c_str() + 7, nullptr, 10);
  const Course& course = s.courses.at(c);
  std::string payload = body.substr(nl + 1);
  switch (course.kind) {
    case Kind::kRoute: {
      api::RouteGradeRequest req;
      req.submission = std::move(payload);
      req.use_cache = use_cache;
      return CallLog::timed(Layer::kRouteGrade, [&] {
               return api::grade_route_submission(course.route,
                                                  course.route_digest, req);
             }).grade.score;
    }
    case Kind::kPlace: {
      api::PlaceGradeRequest req;
      req.submission = std::move(payload);
      req.reference_hpwl = course.reference_hpwl;
      req.use_cache = use_cache;
      return CallLog::timed(Layer::kPlaceGrade, [&] {
               return api::grade_place_submission(course.place, course.grid,
                                                  course.place_digest, req);
             }).grade.score;
    }
    case Kind::kPla: {
      api::EspressoRequest req;
      req.pla = std::move(payload);
      req.use_cache = use_cache;
      const auto r = CallLog::timed(Layer::kEspresso,
                                    [&] { return api::minimize_pla(req); });
      if (r.exit_code != 0) throw std::runtime_error(r.status.to_string());
      return count_cube_lines(r.output);
    }
    case Kind::kCnf: {
      api::SatRequest req;
      req.dimacs = std::move(payload);
      req.use_cache = use_cache;
      const auto r =
          CallLog::timed(Layer::kSat, [&] { return api::solve_sat(req); });
      if (r.exit_code == 10) return 100.0;
      if (r.exit_code == 20) return 50.0;
      throw std::runtime_error(r.status.to_string());
    }
  }
  return 0.0;
}

bool has_error(const std::vector<util::Diagnostic>& diags) {
  for (const auto& d : diags)
    if (d.severity == util::Severity::kError) return true;
  return false;
}

}  // namespace

Report run_semester_real(const Options& opt) {
  const RealSizes z = real_sizes(opt.toy);
  RealSetup setup;
  auto build = [&] {
    setup = RealSetup();  // free the previous copy first: steadier peak RSS
    setup = build_real(opt, z);
  };
  SetupTimer setup_timer;
  for (int g = 0; g < 3; ++g) setup_timer.time(1, build);
  const auto& trace = setup.trace;

  const auto gate = mooc::sema_submission_lint(true);
  mooc::ServiceOptions sopt;
  sopt.queue_cap = 1 << 20;
  sopt.admit_quota = 1 << 20;
  sopt.service_rate = z.service_rate;
  sopt.queue.lint = [&gate](const std::string& body) {
    return CallLog::timed(Layer::kSema, [&] { return gate(body); }, has_error);
  };
  const mooc::GradeFn grade = [&setup](const std::string& body,
                                       const util::Budget&) {
    return grade_real(setup, body, true);
  };

  // Oracle inputs, outside the timed region: every body the trace uses is
  // linted and (when clean) graded by a direct, uncached call.
  Report report;
  std::set<std::uint32_t> used;
  for (const auto& ev : trace.events) used.insert(ev.body);
  std::vector<double> expected(trace.bodies.size(), -1.0);
  for (const auto b : used) {
    const bool rejects = has_error(gate(trace.bodies[b]));
    if (rejects != setup.defective[b])
      report.fail("sema gate verdict on body " + std::to_string(b) +
                       (rejects ? " (clean body rejected)" : " (defect missed)"));
    if (!setup.defective[b]) expected[b] = grade_real(setup, trace.bodies[b], false);
  }

  const mooc::ShardMap map(kShards);
  const fs::path dir = fs::path(opt.work_dir) / "journal";
  std::vector<PassFigures> passes;
  std::int64_t wrong = 0, attempts = 0;

  auto one_pass = [&](bool traced) {
    cache::Cache::global().clear();
    set_tracing(traced);
    const CacheMark mark = cache_mark();
    ShardedDrain d = drain_sharded(trace, sopt, grade, dir, map, report);
    LayerValues lv;
    if (traced) {
      set_callback_layers(lv, CallLog::take(), d.drain_s * 1e3, report);
      set_cache_layer(lv, mark);
      set_service_layer(lv, d.merged);
      lv.set("mooc.merge_ms", d.merge_s * 1e3);
    }
    set_tracing(false);

    // Oracle, outside the timed region. Quota and cap are far above the
    // trace, so nothing is refused: every outcome is either the one the
    // oracle expects or wrong.
    check_drain(d, trace.events.size(), report, lv);
    if (opt.corrupt == "score") {
      for (auto& out : d.merged.outcomes)
        if (out.disposition == Disposition::kGraded) {
          out.score += 1.0;
          break;
        }
    }
    const auto& outcomes = d.merged.outcomes;
    for (std::size_t id = 0; id < trace.events.size() && id < outcomes.size(); ++id) {
      const auto b = trace.events[id].body;
      const auto& out = outcomes[id];
      const bool good = setup.defective[b]
                            ? out.disposition == Disposition::kLintRejected
                            : out.disposition == Disposition::kGraded &&
                                  out.score == expected[b];
      wrong += good ? 0 : 1;
    }
    attempts += static_cast<std::int64_t>(trace.events.size());
    passes.push_back(pass_figures(trace, d, map));
    fs::remove_all(dir);
    // The rebuilt inputs are identical (same seed), so `expected` holds.
    setup_timer.time(1, build);
    return lv;
  };

  LayerValues layers = drive_passes(opt, passes, one_pass);
  report.attempted = attempts;
  report.failed = wrong;
  if (wrong != 0)
    report.fail(std::to_string(wrong) + " of " + std::to_string(attempts) +
                " outcomes differ from the oracle's");
  if (opt.trace) {
    layers.emit(report);
  } else {
    EndToEnd e;
    e.setup_s = setup_timer.median_s();
    e.ok_ratio = static_cast<double>(attempts - wrong) / static_cast<double>(attempts);
    emit_end_to_end(passes, e, report);
  }
  return report;
}

}  // namespace bench
