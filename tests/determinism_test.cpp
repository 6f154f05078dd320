// Cross-thread-count determinism: the hard design constraint of the
// parallel execution core. Router, placer solve, fault simulation, and
// batch grading must produce byte-identical results for L2L_THREADS in
// {1, 2, 8}, because the auto-grader contract ("same submission, same
// score") cannot depend on the machine that graded it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/esop.hpp"
#include "cache/cache.hpp"
#include "fault/faults.hpp"
#include "fault/simulator.hpp"
#include "flow/flow.hpp"
#include "gen/function_gen.hpp"
#include "gen/placement_gen.hpp"
#include "gen/routing_gen.hpp"
#include "grader/place_grader.hpp"
#include "grader/route_grader.hpp"
#include "linalg/cg.hpp"
#include "lint/lint.hpp"
#include "mooc/cohort.hpp"
#include "mooc/grading_service.hpp"
#include "network/blif.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "one_course.hpp"
#include "place/legalize.hpp"
#include "place/quadratic.hpp"
#include "route/router.hpp"
#include "route/solution.hpp"
#include "sema/sema.hpp"
#include "util/budget.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace l2l {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

class DeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { util::set_num_threads(0); }
};

TEST_F(DeterminismTest, NegotiatedRouterIsThreadCountInvariant) {
  util::Rng rng(2026);
  gen::RoutingGenOptions gopt;
  gopt.width = gopt.height = 40;
  gopt.num_nets = 36;
  gopt.max_pins_per_net = 4;
  const auto p = gen::generate_routing(gopt, rng);

  std::vector<route::RouteSolution> sols;
  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    sols.push_back(route::route_all(p));
  }
  for (std::size_t s = 1; s < sols.size(); ++s) {
    EXPECT_EQ(sols[s].stats.routed, sols[0].stats.routed);
    EXPECT_EQ(sols[s].stats.expansions, sols[0].stats.expansions);
    EXPECT_EQ(sols[s].stats.negotiation_iterations,
              sols[0].stats.negotiation_iterations);
    ASSERT_EQ(sols[s].nets.size(), sols[0].nets.size());
    for (std::size_t n = 0; n < sols[0].nets.size(); ++n) {
      EXPECT_EQ(sols[s].nets[n].routed, sols[0].nets[n].routed);
      EXPECT_EQ(sols[s].nets[n].cells, sols[0].nets[n].cells)
          << "net " << n << " differs at " << kThreadCounts[s] << " threads";
    }
    // The ASCII solution text -- what a grader would see -- matches too.
    EXPECT_EQ(route::write_solution(sols[s]), route::write_solution(sols[0]));
  }
}

TEST_F(DeterminismTest, QuadraticPlacerIsThreadCountInvariant) {
  util::Rng rng(2027);
  gen::PlacementGenOptions gopt;
  gopt.num_cells = 300;
  const auto p = gen::generate_placement(gopt, rng);

  std::vector<place::Placement> placements;
  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    placements.push_back(place::place_quadratic(p));
  }
  for (std::size_t s = 1; s < placements.size(); ++s) {
    ASSERT_EQ(placements[s].x.size(), placements[0].x.size());
    for (std::size_t c = 0; c < placements[0].x.size(); ++c) {
      // Bit-exact double equality, not EXPECT_NEAR: the reductions are
      // chunk-ordered, so no thread count may perturb a single ulp.
      EXPECT_EQ(placements[s].x[c], placements[0].x[c]) << "cell " << c;
      EXPECT_EQ(placements[s].y[c], placements[0].y[c]) << "cell " << c;
    }
  }
}

TEST_F(DeterminismTest, ConjugateGradientIsThreadCountInvariant) {
  // A system large enough to span many reduction chunks.
  constexpr int kN = 20'000;
  linalg::SparseMatrix a(kN);
  std::vector<double> b(kN);
  for (int i = 0; i < kN; ++i) {
    a.add(i, i, 4.0 + 0.001 * i);
    if (i + 1 < kN) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
    b[static_cast<std::size_t>(i)] = std::sin(0.1 * i);
  }
  a.compress();

  std::vector<linalg::CgResult> results;
  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    results.push_back(linalg::conjugate_gradient(a, b));
  }
  for (std::size_t s = 1; s < results.size(); ++s) {
    EXPECT_EQ(results[s].iterations, results[0].iterations);
    EXPECT_EQ(results[s].residual, results[0].residual);
    for (int i = 0; i < kN; ++i)
      ASSERT_EQ(results[s].x[static_cast<std::size_t>(i)],
                results[0].x[static_cast<std::size_t>(i)])
          << "x[" << i << "] at " << kThreadCounts[s] << " threads";
  }
}

TEST_F(DeterminismTest, FaultSimulationIsThreadCountInvariant) {
  const auto net = gen::adder_network(3);
  const auto faults = fault::enumerate_faults(net);

  std::vector<fault::FaultSimResult> results;
  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    util::Rng rng(77);  // fresh identically-seeded pattern stream each run
    results.push_back(fault::random_pattern_coverage(net, faults, 24, rng));
  }
  for (std::size_t s = 1; s < results.size(); ++s) {
    EXPECT_EQ(results[s].detected, results[0].detected);
    ASSERT_EQ(results[s].undetected.size(), results[0].undetected.size());
    for (std::size_t f = 0; f < results[0].undetected.size(); ++f) {
      EXPECT_EQ(results[s].undetected[f].node, results[0].undetected[f].node);
      EXPECT_EQ(results[s].undetected[f].stuck_value,
                results[0].undetected[f].stuck_value);
    }
  }
}

TEST_F(DeterminismTest, BatchGradingIsThreadCountInvariant) {
  util::Rng rng(2028);
  gen::RoutingGenOptions gopt;
  gopt.width = gopt.height = 24;
  gopt.num_nets = 10;
  const auto p = gen::generate_routing(gopt, rng);

  // A spread of submissions: a good one, a truncated one, garbage.
  const auto good = route::write_solution(route::route_all(p));
  std::vector<std::string> submissions;
  for (int s = 0; s < 12; ++s) {
    if (s % 3 == 0)
      submissions.push_back(good);
    else if (s % 3 == 1)
      submissions.push_back(good.substr(0, good.size() / 2));
    else
      submissions.push_back("this is not a routing solution");
  }

  std::vector<std::vector<grader::RouteGrade>> all;
  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    all.push_back(grader::grade_routing_batch(p, submissions));
  }
  for (std::size_t s = 1; s < all.size(); ++s) {
    ASSERT_EQ(all[s].size(), all[0].size());
    for (std::size_t i = 0; i < all[0].size(); ++i) {
      EXPECT_EQ(all[s][i].score, all[0][i].score);
      EXPECT_EQ(all[s][i].report, all[0][i].report);
    }
  }
}

// A step-limited Budget is part of the determinism contract: the limit is
// consumed at algorithmic boundaries (negotiation iterations, region
// solves), never per wall-clock tick, so a guarded run that stops early
// must stop at the SAME point -- bit-identical partial results -- at any
// thread count. A grader that cuts a submission off must cut it off at
// the same net on every machine.

TEST_F(DeterminismTest, StepLimitedRouterIsThreadCountInvariant) {
  util::Rng rng(2029);
  gen::RoutingGenOptions gopt;
  gopt.width = gopt.height = 40;
  gopt.num_nets = 36;
  const auto p = gen::generate_routing(gopt, rng);

  std::vector<route::RouteSolution> sols;
  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    const auto budget = util::Budget::with_step_limit(2);
    route::RouterOptions opt;
    opt.budget = &budget;
    sols.push_back(route::route_all(p, opt));
  }
  for (std::size_t s = 1; s < sols.size(); ++s) {
    EXPECT_EQ(sols[s].status.code, sols[0].status.code);
    EXPECT_FALSE(sols[s].status.ok());  // the tiny budget really tripped
    // The partial solution -- what a grader would score -- is identical.
    EXPECT_EQ(route::write_solution(sols[s]), route::write_solution(sols[0]))
        << "budget-limited partial solution differs at " << kThreadCounts[s]
        << " threads";
  }
}

TEST_F(DeterminismTest, StepLimitedPlacerIsThreadCountInvariant) {
  util::Rng rng(2030);
  gen::PlacementGenOptions gopt;
  gopt.num_cells = 300;
  const auto p = gen::generate_placement(gopt, rng);

  std::vector<place::Placement> placements;
  std::vector<place::QuadraticStats> stats;
  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    const auto budget = util::Budget::with_step_limit(3);
    place::QuadraticOptions opt;
    opt.budget = &budget;
    place::QuadraticStats st;
    placements.push_back(place::place_quadratic(p, opt, &st));
    stats.push_back(st);
  }
  for (std::size_t s = 1; s < placements.size(); ++s) {
    EXPECT_EQ(stats[s].status.code, stats[0].status.code);
    EXPECT_FALSE(stats[s].status.ok());
    ASSERT_EQ(placements[s].x.size(), placements[0].x.size());
    for (std::size_t c = 0; c < placements[0].x.size(); ++c) {
      EXPECT_EQ(placements[s].x[c], placements[0].x[c]) << "cell " << c;
      EXPECT_EQ(placements[s].y[c], placements[0].y[c]) << "cell " << c;
    }
  }
}

TEST_F(DeterminismTest, FaultInjectedQueueDrainIsThreadCountInvariant) {
  std::vector<std::string> subs;
  for (int i = 0; i < 24; ++i) subs.push_back(std::to_string(i));
  mooc::QueueOptions qopt;
  qopt.fault_seed = 99;
  qopt.transient_fault_rate = 0.3;
  qopt.stall_rate = 0.15;
  qopt.max_retries = 3;
  qopt.step_limit = 10;
  const auto grade = [](const std::string& s, const util::Budget& budget) {
    // Submission k consumes k steps: some submissions blow the budget,
    // deterministically.
    const int k = util::parse_int(s).value();
    for (int q = 0; q < k; ++q)
      if (!budget.consume(1)) break;
    return static_cast<double>(k);
  };

  std::vector<mooc::ServiceResult> runs;
  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    runs.push_back(testutil::run_one_course(subs, grade, qopt));
  }
  for (std::size_t s = 1; s < runs.size(); ++s) {
    ASSERT_EQ(runs[s].outcomes.size(), runs[0].outcomes.size());
    for (std::size_t i = 0; i < runs[0].outcomes.size(); ++i) {
      const auto& a = runs[0].outcomes[i];
      const auto& b = runs[s].outcomes[i];
      EXPECT_EQ(b.disposition, a.disposition) << "submission " << i;
      EXPECT_EQ(b.score, a.score) << "submission " << i;
      EXPECT_EQ(b.attempts, a.attempts) << "submission " << i;
      EXPECT_EQ(b.backoff_ticks, a.backoff_ticks) << "submission " << i;
      EXPECT_EQ(b.status, a.status) << "submission " << i;
      EXPECT_EQ(b.diagnostic, a.diagnostic) << "submission " << i;
    }
    EXPECT_EQ(runs[s].stats.graded, runs[0].stats.graded);
    EXPECT_EQ(runs[s].stats.failed, runs[0].stats.failed);
    EXPECT_EQ(runs[s].stats.budget_exceeded, runs[0].stats.budget_exceeded);
    EXPECT_EQ(runs[s].stats.retries_exhausted,
              runs[0].stats.retries_exhausted);
    EXPECT_EQ(runs[s].stats.total_attempts, runs[0].stats.total_attempts);
    EXPECT_EQ(runs[s].stats.injected_transients,
              runs[0].stats.injected_transients);
    EXPECT_EQ(runs[s].stats.injected_stalls, runs[0].stats.injected_stalls);
  }
}

// ---- observability layer ------------------------------------------------

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The counters-only slice of the metrics export: the part of the
/// deterministic contract the golden file pins down (gauges and histogram
/// residual buckets stay out so the golden survives FP-flag variance).
std::string counters_only_export() {
  std::string out;
  for (const auto& [name, v] : obs::Registry::global().snapshot().counters)
    out += "counter " + name + " " + std::to_string(v) + "\n";
  return out;
}

/// Runs the full flow on data/fulladder.blif with a clean registry and a
/// cold result cache, and returns the counters-only export. The cache
/// clear keeps every run cold: without it the second run would replay
/// the synthesis/placement/routing results and the engine counters would
/// vanish from the export.
std::string full_flow_counters(int threads) {
  const std::string blif = read_file_or_empty(L2L_REPO_DATA_DIR
                                              "/fulladder.blif");
  EXPECT_FALSE(blif.empty()) << "cannot read data/fulladder.blif";
  util::set_num_threads(threads);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  cache::Cache::global().clear();
  const auto net = network::parse_blif(blif);
  const auto res = flow::run_flow(net, flow::FlowOptions{});
  EXPECT_TRUE(res.status.ok()) << res.status.to_string();
  return counters_only_export();
}

TEST_F(DeterminismTest, FullFlowMetricsCountersAreThreadCountInvariant) {
  obs::set_enabled(true);
  std::vector<std::string> exports;
  for (const int t : kThreadCounts) exports.push_back(full_flow_counters(t));
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  ASSERT_EQ(exports.size(), 3u);
  EXPECT_FALSE(exports[0].empty());
  EXPECT_EQ(exports[0], exports[1]) << "threads 1 vs 2";
  EXPECT_EQ(exports[0], exports[2]) << "threads 1 vs 8";
  // The flow actually reported: stage spans and engine counters present.
  EXPECT_NE(exports[0].find("counter flow.runs 1"), std::string::npos);
  EXPECT_NE(exports[0].find("counter span.flow.stage.routing 1"),
            std::string::npos);
  EXPECT_NE(exports[0].find("counter place.regions_solved"),
            std::string::npos);
  EXPECT_NE(exports[0].find("counter route.calls 1"), std::string::npos);
}

// ---- lint ---------------------------------------------------------------

TEST_F(DeterminismTest, LintReportIsThreadCountInvariant) {
  // lint_files fans each artifact out to a worker; the rendered report
  // (text and JSON) must come back byte-identical at any L2L_THREADS --
  // the pre-grade lint pass feeds student-visible reports, so it lives
  // under the same contract as the engines. The batch mixes the repo's
  // own clean artifacts with the hostile corpus.
  std::vector<std::pair<std::string, std::string>> batch;
  for (const char* rel :
       {L2L_REPO_DATA_DIR "/fulladder.blif", L2L_REPO_DATA_DIR "/sample.pla",
        L2L_REPO_DATA_DIR "/sample.cnf", L2L_REPO_DATA_DIR "/sample.kbdd",
        L2L_REPO_DATA_DIR "/sample.axb",
        L2L_TEST_DATA_DIR "/hostile/garbage.blif",
        L2L_TEST_DATA_DIR "/hostile/bad_literals.cnf",
        L2L_TEST_DATA_DIR "/hostile/truncated.pla",
        L2L_TEST_DATA_DIR "/hostile/bad_placement.txt",
        L2L_TEST_DATA_DIR "/hostile/binary.junk"}) {
    const std::string text = read_file_or_empty(rel);
    ASSERT_FALSE(text.empty()) << "cannot read " << rel;
    batch.emplace_back(rel, text);
  }

  std::vector<std::string> texts, jsons;
  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    const auto report = lint::lint_files(batch);
    texts.push_back(report.to_text());
    jsons.push_back(report.to_json());
  }
  for (size_t s = 1; s < texts.size(); ++s) {
    EXPECT_EQ(texts[s], texts[0])
        << "lint text differs at " << kThreadCounts[s] << " threads";
    EXPECT_EQ(jsons[s], jsons[0])
        << "lint json differs at " << kThreadCounts[s] << " threads";
  }
  // The batch genuinely exercised both sides of the gate.
  EXPECT_NE(texts[0].find("error"), std::string::npos);
  EXPECT_NE(texts[0].find("lint: 10 file(s)"), std::string::npos);
}

// ---- sema ---------------------------------------------------------------

/// The sema determinism batch: clean repo artifacts plus the semantic
/// half of the hostile corpus (cycles, multi-driven nets, the 10k-gate
/// SCC ring). Shared by the thread-invariance check and the golden pin.
std::vector<std::pair<std::string, std::string>> sema_batch() {
  std::vector<std::pair<std::string, std::string>> batch;
  for (const char* rel :
       {L2L_REPO_DATA_DIR "/fulladder.blif", L2L_REPO_DATA_DIR "/sample.pla",
        L2L_REPO_DATA_DIR "/sample.cnf",
        L2L_TEST_DATA_DIR "/hostile/cyclic.blif",
        L2L_TEST_DATA_DIR "/hostile/multi_driven.blif",
        L2L_TEST_DATA_DIR "/hostile/input_shadow.blif",
        L2L_TEST_DATA_DIR "/hostile/scc_chain_10k.blif"}) {
    const std::string text = read_file_or_empty(rel);
    EXPECT_FALSE(text.empty()) << "cannot read " << rel;
    batch.emplace_back(rel, text);
  }
  return batch;
}

TEST_F(DeterminismTest, SemaReportIsThreadCountInvariant) {
  // sema::analyze_files fans out like lint_files and feeds the same
  // student-visible report renderers, so it lives under the identical
  // byte-for-byte contract at any L2L_THREADS.
  const auto batch = sema_batch();
  std::vector<std::string> texts, jsons;
  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    const auto report = sema::analyze_files(batch);
    texts.push_back(report.to_text());
    jsons.push_back(report.to_json());
  }
  for (size_t s = 1; s < texts.size(); ++s) {
    EXPECT_EQ(texts[s], texts[0])
        << "sema text differs at " << kThreadCounts[s] << " threads";
    EXPECT_EQ(jsons[s], jsons[0])
        << "sema json differs at " << kThreadCounts[s] << " threads";
  }
  EXPECT_NE(texts[0].find("L2L-N001"), std::string::npos);
  EXPECT_NE(texts[0].find("L2L-N003"), std::string::npos);
}

// Byte-for-byte golden pin of the sema.* counter export (same protocol
// as the other goldens: L2L_UPDATE_GOLDEN=1 regenerates, then commit
// tests/data/golden/sema_metrics.txt).
TEST_F(DeterminismTest, SemaMetricsMatchGoldenFile) {
  obs::set_enabled(true);
  util::set_num_threads(2);
  obs::Registry::global().reset();
  (void)sema::analyze_files(sema_batch());
  std::string got;
  for (const auto& [name, v] :
       obs::Registry::global().snapshot().counters)
    if (name.rfind("sema.", 0) == 0)
      got += "counter " + name + " " + std::to_string(v) + "\n";
  obs::Registry::global().reset();
  const std::string golden_path =
      L2L_TEST_DATA_DIR "/golden/sema_metrics.txt";
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  const std::string want = read_file_or_empty(golden_path);
  ASSERT_FALSE(want.empty())
      << "missing golden file tests/data/golden/sema_metrics.txt";
  EXPECT_EQ(got, want) << "actual:\n" << got;
}

// The same export must match the checked-in golden file byte for byte --
// an unannounced change to any engine's deterministic counters (or to the
// export format) fails here first. To regenerate after an intentional
// change, run this test alone with L2L_UPDATE_GOLDEN=1 in the
// environment and commit the rewritten
// tests/data/golden/fulladder_metrics.txt.
TEST_F(DeterminismTest, FullFlowMetricsMatchGoldenFile) {
  obs::set_enabled(true);
  const std::string got = full_flow_counters(2);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  const std::string golden_path =
      L2L_TEST_DATA_DIR "/golden/fulladder_metrics.txt";
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  const std::string want = read_file_or_empty(golden_path);
  ASSERT_FALSE(want.empty())
      << "missing golden file tests/data/golden/fulladder_metrics.txt";
  EXPECT_EQ(got, want) << "actual:\n" << got;
}

// ---- exact ESOP ---------------------------------------------------------

/// Runs a fixed batch of exact-ESOP syntheses (cold cache, clean
/// registry) and returns {tool-visible report, counters-only export}.
/// The batch covers both input formats, a multi-output PLA, and a
/// deterministic partial (conflict-limited) run, so the esop.* counters
/// include the sat/unsat/undef query mix.
std::pair<std::string, std::string> esop_batch_report(int threads) {
  util::set_num_threads(threads);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  cache::Cache::global().clear();
  std::string report;
  for (const char* input :
       {"0110100110010110\n",
        ".i 4\n.o 2\n.ob f g\n1100 10\n0011 10\n1-1- 01\n-1-1 01\n.e\n",
        ".i 3\n.o 1\n1-- 1\n-1- 1\n--1 1\n.e\n"}) {
    api::EsopRequest req;
    req.input = input;
    req.show_stats = true;
    req.use_cache = false;
    const auto res = api::synthesize_esop(req);
    EXPECT_TRUE(res.status.ok()) << res.status.to_string();
    report += res.stats_output + res.output;
  }
  {
    api::EsopRequest req;  // conflict-limited: the undef/partial path
    req.input = "01101001100101101001011001101001\n";
    req.conflict_limit = 10;
    req.show_stats = true;
    req.use_cache = false;
    const auto res = api::synthesize_esop(req);
    EXPECT_FALSE(res.status.ok()) << "conflict limit 10 should trip";
    report += res.stats_output + res.status.to_string() + "\n";
  }
  return {report, counters_only_export()};
}

TEST_F(DeterminismTest, EsopReportAndCountersAreThreadCountInvariant) {
  obs::set_enabled(true);
  std::vector<std::pair<std::string, std::string>> runs;
  for (const int t : kThreadCounts) runs.push_back(esop_batch_report(t));
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  for (std::size_t s = 1; s < runs.size(); ++s) {
    EXPECT_EQ(runs[s].first, runs[0].first)
        << "esop report differs at " << kThreadCounts[s] << " threads";
    EXPECT_EQ(runs[s].second, runs[0].second)
        << "esop counters differ at " << kThreadCounts[s] << " threads";
  }
  // The batch genuinely hit the engine: calls, query mix, proofs.
  EXPECT_NE(runs[0].second.find("counter esop.synth_calls 5"),
            std::string::npos)
      << runs[0].second;
  EXPECT_NE(runs[0].second.find("counter esop.queries_unsat"),
            std::string::npos);
  EXPECT_NE(runs[0].second.find("counter esop.queries_undef 1"),
            std::string::npos);
  EXPECT_NE(runs[0].second.find("counter esop.minimal_proven 4"),
            std::string::npos);
  EXPECT_NE(runs[0].second.find("counter esop.partial_results 1"),
            std::string::npos);
}

// Byte-for-byte golden pin of the esop.* counter export (same protocol
// as fulladder_metrics.txt: regenerate with L2L_UPDATE_GOLDEN=1 and
// commit tests/data/golden/esop_metrics.txt).
TEST_F(DeterminismTest, EsopMetricsMatchGoldenFile) {
  obs::set_enabled(true);
  const std::string got = esop_batch_report(2).second;
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  const std::string golden_path = L2L_TEST_DATA_DIR "/golden/esop_metrics.txt";
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  const std::string want = read_file_or_empty(golden_path);
  ASSERT_FALSE(want.empty())
      << "missing golden file tests/data/golden/esop_metrics.txt";
  EXPECT_EQ(got, want) << "actual:\n" << got;
}

// ---- grading service ----------------------------------------------------

/// A small semester that exercises every service path: overload (sheds +
/// quota rejects), a mid-semester fault storm (breaker trips, degraded
/// service, probes, recovery), and duplicate-heavy uploads (dedup).
std::string service_drain_counters(int threads, mooc::ServiceStats* stats) {
  mooc::TraceOptions topt;
  topt.num_students = 1500;
  topt.num_courses = 2;
  topt.ticks = 80;
  util::Rng rng(5);
  const auto trace = mooc::generate_submission_trace(topt, rng);

  mooc::ServiceOptions sopt;
  sopt.queue_cap = 48;
  sopt.admit_quota = 32;
  sopt.service_rate = 8;
  sopt.breaker_threshold = 4;
  sopt.breaker_probe_interval = 4;
  sopt.storm_begin_tick = 20;
  sopt.storm_end_tick = 40;
  sopt.storm_transient_rate = 0.95;
  sopt.storm_stall_rate = 0.3;
  sopt.queue.max_retries = 1;

  util::set_num_threads(threads);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  cache::Cache::global().clear();
  const mooc::GradingService service(
      sopt, [](const std::string& s, const util::Budget&) {
        return static_cast<double>(s.size() % 101);
      });
  const auto res = service.run(trace);
  EXPECT_TRUE(res.accounting_ok()) << "silent drop at " << threads
                                   << " threads";
  if (stats != nullptr) *stats = res.stats;
  return counters_only_export();
}

TEST_F(DeterminismTest, ServiceDrainCountersAreThreadCountInvariant) {
  obs::set_enabled(true);
  std::vector<std::string> exports;
  mooc::ServiceStats stats{};
  for (const int t : kThreadCounts)
    exports.push_back(service_drain_counters(t, &stats));
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  ASSERT_EQ(exports.size(), 3u);
  EXPECT_FALSE(exports[0].empty());
  EXPECT_EQ(exports[0], exports[1]) << "threads 1 vs 2";
  EXPECT_EQ(exports[0], exports[2]) << "threads 1 vs 8";
  // The scenario genuinely exercised the overload and breaker machinery.
  EXPECT_GT(stats.shed, 0);
  EXPECT_GT(stats.rejected_quota, 0);
  EXPECT_GT(stats.breaker_trips, 0);
  EXPECT_GT(stats.degraded, 0);
  EXPECT_GT(stats.dedup_hits, 0);
  EXPECT_NE(exports[0].find("counter mooc.service.runs 1"),
            std::string::npos);
  EXPECT_NE(exports[0].find("counter mooc.service.shed"), std::string::npos);
}

// The service's counters-only export, pinned byte for byte. Regenerate
// after an intentional change with L2L_UPDATE_GOLDEN=1 and commit the
// rewritten tests/data/golden/service_metrics.txt.
TEST_F(DeterminismTest, ServiceMetricsMatchGoldenFile) {
  obs::set_enabled(true);
  const std::string got = service_drain_counters(2, nullptr);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  const std::string golden_path =
      L2L_TEST_DATA_DIR "/golden/service_metrics.txt";
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  const std::string want = read_file_or_empty(golden_path);
  ASSERT_FALSE(want.empty())
      << "missing golden file tests/data/golden/service_metrics.txt";
  EXPECT_EQ(got, want) << "actual:\n" << got;
}

// ---- result cache -------------------------------------------------------

// The cache contract: a warm run replays engine results byte-for-byte.
// One cold flow fills the cache; re-runs at every thread count must
// reproduce the placement, routing, and HPWL exactly (the HPWL compare is
// ==, not near -- the serialized f64 round-trips its IEEE bits).
TEST_F(DeterminismTest, FullFlowColdAndWarmRunsAreByteIdentical) {
  const std::string blif = read_file_or_empty(L2L_REPO_DATA_DIR
                                              "/fulladder.blif");
  ASSERT_FALSE(blif.empty()) << "cannot read data/fulladder.blif";
  const auto net = network::parse_blif(blif);

  cache::Cache::global().clear();
  util::set_num_threads(1);
  const auto cold = flow::run_flow(net, flow::FlowOptions{});
  ASSERT_TRUE(cold.status.ok()) << cold.status.to_string();

  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    const auto warm = flow::run_flow(net, flow::FlowOptions{});
    ASSERT_TRUE(warm.status.ok()) << warm.status.to_string();
    EXPECT_EQ(warm.literals_after, cold.literals_after) << t << " threads";
    EXPECT_EQ(warm.placement.col, cold.placement.col) << t << " threads";
    EXPECT_EQ(warm.placement.row, cold.placement.row) << t << " threads";
    EXPECT_EQ(warm.hpwl, cold.hpwl) << t << " threads";
    EXPECT_EQ(route::write_solution(warm.routing),
              route::write_solution(cold.routing))
        << t << " threads";
  }
  cache::Cache::global().clear();
}

// L2L_CACHE=0 equivalence: with the kill switch down, back-to-back flows
// re-run every engine and the metrics export mentions no cache counters
// at all -- byte-identical to the pre-cache codebase.
TEST_F(DeterminismTest, CacheKillSwitchRestoresUncachedCounters) {
  obs::set_enabled(true);
  cache::set_enabled(false);
  const auto first = full_flow_counters(2);
  const auto second = full_flow_counters(2);
  cache::set_enabled(true);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.find("counter cache."), std::string::npos)
      << "cache counters leaked into the kill-switch export:\n" << first;
  EXPECT_NE(first.find("counter route.calls 1"), std::string::npos);
  EXPECT_NE(first.find("counter place.calls 1"), std::string::npos);
}

// Cross-run replay: a re-run of the same cohort under the same
// cache_domain answers every unique submission from the cache, at any
// thread count, with outcomes byte-identical to the cold run. One upload
// per tick, so each repeat replays the in-run memo.
TEST_F(DeterminismTest, QueueWarmRedrainReplaysByteIdenticalOutcomes) {
  std::vector<std::string> subs;
  for (int i = 0; i < 30; ++i) subs.push_back("sub" + std::to_string(i % 10));
  mooc::QueueOptions qopt;
  qopt.cache_domain = "determinism-test.queue";
  qopt.step_limit = 100;
  const auto grade = [](const std::string& s, const util::Budget&) {
    return static_cast<double>(s.size());
  };

  cache::Cache::global().clear();
  util::set_num_threads(1);
  const auto cold = testutil::run_one_course(subs, grade, qopt, 1);
  EXPECT_EQ(cold.stats.cache_hits, 0);
  EXPECT_EQ(cold.stats.dedup_hits, 20);  // 10 unique, each uploaded 3x

  for (const int t : kThreadCounts) {
    util::set_num_threads(t);
    const auto warm = testutil::run_one_course(subs, grade, qopt, 1);
    EXPECT_EQ(warm.stats.cache_hits, 10) << t << " threads";
    EXPECT_EQ(warm.stats.graded, cold.stats.graded) << t << " threads";
    EXPECT_EQ(warm.stats.total_attempts, cold.stats.total_attempts)
        << t << " threads";
    ASSERT_EQ(warm.outcomes.size(), cold.outcomes.size());
    for (std::size_t i = 0; i < cold.outcomes.size(); ++i) {
      EXPECT_EQ(warm.outcomes[i].disposition, cold.outcomes[i].disposition)
          << i;
      EXPECT_EQ(warm.outcomes[i].score, cold.outcomes[i].score) << i;
      EXPECT_EQ(warm.outcomes[i].attempts, cold.outcomes[i].attempts) << i;
      EXPECT_EQ(warm.outcomes[i].backoff_ticks, cold.outcomes[i].backoff_ticks)
          << i;
      EXPECT_EQ(warm.outcomes[i].status, cold.outcomes[i].status) << i;
      EXPECT_EQ(warm.outcomes[i].diagnostic, cold.outcomes[i].diagnostic) << i;
    }
  }
  cache::Cache::global().clear();
}

}  // namespace
}  // namespace l2l
