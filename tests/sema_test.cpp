// l2l::sema test suite, mirroring lint_test's shape one layer up: every
// registered semantic rule fires on a seeded defect and stays silent on a
// clean artifact, the repo's own data/ artifacts are semantically clean,
// the hostile corpus (cyclic netlists, multi-driven nets, a 10k-gate SCC
// ring) is diagnosed without crashing, the grading service rejects
// semantically broken submissions before any engine runs, and reports
// render byte-identically at any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "mooc/grading_service.hpp"
#include "mooc/submission_lint.hpp"
#include "network/blif.hpp"
#include "obs/metrics.hpp"
#include "one_course.hpp"
#include "sema/sema.hpp"
#include "util/parallel.hpp"

namespace l2l::sema {
namespace {

using lint::Format;

// ---- fixtures -----------------------------------------------------------

/// One artifact per analyzed format that every rule of its pack must
/// accept: no cycles, every net driven once and read, no constants, no
/// duplicate structure; distinct irredundant clauses with both phases of
/// every variable; disjoint fully-specified PLA rows.
const char* clean_text(Format f) {
  switch (f) {
    case Format::kBlif:
      return ".model t\n.inputs a b\n.outputs y z\n"
             ".names a b y\n11 1\n.names a b z\n00 1\n.end\n";
    case Format::kCnf:
      return "p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n";
    case Format::kPla:
      return ".i 2\n.o 1\n.p 2\n00 1\n11 1\n.e\n";
    default:
      return "";
  }
}

bool has_rule(const std::vector<Finding>& findings, std::string_view id) {
  for (const auto& f : findings)
    if (f.rule == id) return true;
  return false;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- the rule table: one seeded defect per registered rule --------------

struct RuleCase {
  const char* rule;
  Format format;
  const char* dirty;  ///< minimal artifact that must trigger `rule`
};

const RuleCase kRuleCases[] = {
    // N-pack: BLIF name-graph semantics.
    {"L2L-N001", Format::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names q y\n1 1\n"
     ".names y q\n1 1\n.end\n"},
    {"L2L-N002", Format::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names b y\n1 1\n.end\n"},
    {"L2L-N003", Format::kBlif,
     ".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n"
     ".names b y\n1 1\n.end\n"},
    {"L2L-N004", Format::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n"
     ".names a z\n0 1\n.end\n"},
    {"L2L-N005", Format::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n"
     ".names a t\n0 1\n.names t u\n0 1\n.end\n"},
    {"L2L-N006", Format::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a a y\n10 1\n.end\n"},
    {"L2L-N007", Format::kBlif,
     ".model m\n.inputs a b\n.outputs y z\n.names a b y\n11 1\n"
     ".names a b z\n11 1\n.end\n"},
    // C-pack: DIMACS CNF semantics.
    {"L2L-C101", Format::kCnf, "p cnf 2 3\n1 2 0\n2 1 0\n-1 -2 0\n"},
    {"L2L-C102", Format::kCnf, "p cnf 1 1\n1 -1 0\n"},
    {"L2L-C103", Format::kCnf, "p cnf 2 2\n1 2 0\n1 -2 0\n"},
    {"L2L-C104", Format::kCnf, "p cnf 1 2\n1 0\n-1 0\n"},
    // P-pack: PLA semantics.
    {"L2L-P101", Format::kPla, ".i 2\n.o 1\n1- 1\n11 1\n.e\n"},
    {"L2L-P102", Format::kPla, ".i 2\n.o 1\n1- 1\n11 0\n.e\n"},
    {"L2L-P103", Format::kPla, ".i 2\n.o 1\n11 1\n1- -\n.e\n"},
};

// ---- per-rule positive and negative cases -------------------------------

TEST(SemaRules, EveryRegisteredRuleFiresOnItsSeededDefect) {
  for (const auto& c : kRuleCases) {
    const auto findings = analyze_text("case", c.dirty, c.format).findings;
    EXPECT_TRUE(has_rule(findings, c.rule))
        << c.rule << " did not fire on its seeded defect";
    const lint::RuleInfo* info = rule_info(c.rule);
    ASSERT_NE(info, nullptr) << c.rule << " missing from all_rules()";
    for (const auto& f : findings)
      if (f.rule == c.rule) {
        EXPECT_EQ(f.severity, info->severity)
            << c.rule << " fired at a severity differing from its registry "
            << "default";
      }
  }
}

TEST(SemaRules, NoRuleFiresOnItsFormatsCleanArtifact) {
  for (const auto& c : kRuleCases) {
    const auto findings =
        analyze_text("case", clean_text(c.format), c.format).findings;
    EXPECT_TRUE(findings.empty())
        << lint::format_name(c.format) << " clean artifact tripped "
        << (findings.empty() ? "" : findings.front().to_string());
  }
}

TEST(SemaRules, TableCoversTheEntireRegistry) {
  std::set<std::string> in_table;
  for (const auto& c : kRuleCases) in_table.insert(c.rule);
  std::set<std::string> registered;
  for (const auto& r : all_rules()) registered.insert(r.id);
  EXPECT_EQ(in_table, registered)
      << "every registered sema rule needs a positive case here (and "
      << "every tested rule must be registered)";
}

TEST(SemaRules, RegistryIsPackGroupedUniqueAndDisjointFromLint) {
  const auto& rules = all_rules();
  ASSERT_FALSE(rules.empty());
  std::set<std::string> ids;
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_TRUE(ids.insert(rules[i].id).second)
        << rules[i].id << " registered twice";
    if (i > 0 && rules[i - 1].id[4] == rules[i].id[4]) {
      EXPECT_LT(std::string(rules[i - 1].id), std::string(rules[i].id));
    }
  }
  for (const auto& r : rules) EXPECT_EQ(rule_info(r.id), &r);
  EXPECT_EQ(rule_info("L2L-N999"), nullptr);
  // The two registries version independently: no sema ID may collide
  // with a lint ID, and neither layer lists the other's rules.
  for (const auto& r : rules) {
    EXPECT_EQ(lint::rule_info(r.id), nullptr)
        << r.id << " also registered in lint::all_rules()";
  }
}

// ---- targeted semantics -------------------------------------------------

TEST(SemaNetwork, CycleFindingNamesEveryMemberGate) {
  // The acceptance-criterion shape: a syntactically valid BLIF whose
  // gates form a loop must produce one error naming the cycle's members.
  const auto analysis = analyze_blif(read_file(
      std::string(L2L_TEST_DATA_DIR) + "/hostile/cyclic.blif"));
  ASSERT_TRUE(has_rule(analysis.findings, "L2L-N001"));
  for (const auto& f : analysis.findings)
    if (f.rule == "L2L-N001") {
      EXPECT_NE(f.message.find("p"), std::string::npos) << f.message;
      EXPECT_NE(f.message.find("q"), std::string::npos) << f.message;
      EXPECT_NE(f.message.find("y"), std::string::npos) << f.message;
    }
}

TEST(SemaNetwork, StuckAtVerdictsAreExactAndPropagate) {
  // y = a AND NOT a is constant 0; z = y OR y inherits it. Both verdicts
  // land in stuck_at (name order) for the differential suite to check.
  const auto analysis = analyze_blif(
      ".model m\n.inputs a\n.outputs z\n.names a a y\n10 1\n"
      ".names y y z\n1- 1\n-1 1\n.end\n");
  ASSERT_EQ(analysis.stuck_at.size(), 2u);
  EXPECT_EQ(analysis.stuck_at[0].first, "y");
  EXPECT_FALSE(analysis.stuck_at[0].second);
  EXPECT_EQ(analysis.stuck_at[1].first, "z");
  EXPECT_FALSE(analysis.stuck_at[1].second);
  // The converse polarity: NOT of a constant 0 is stuck at 1.
  const auto inv = analyze_blif(
      ".model m\n.inputs a\n.outputs z\n.names a a y\n10 1\n"
      ".names y z\n0 1\n.end\n");
  ASSERT_EQ(inv.stuck_at.size(), 2u);
  EXPECT_EQ(inv.stuck_at[1].first, "z");
  EXPECT_TRUE(inv.stuck_at[1].second);
}

TEST(SemaNetwork, InputShadowGetsItsOwnDiagnosticEverywhere) {
  // Satellite regression: a .names block whose output is also a declared
  // model input. Strict parse rejects, lenient parse diagnoses with the
  // dedicated message, sema reports it as the N003 multi-driven variant.
  const std::string text = read_file(
      std::string(L2L_TEST_DATA_DIR) + "/hostile/input_shadow.blif");
  EXPECT_THROW((void)network::parse_blif(text), std::invalid_argument);
  const auto parsed = network::parse_blif_lenient(text);
  ASSERT_FALSE(parsed.clean());
  bool dedicated = false;
  for (const auto& d : parsed.diagnostics)
    if (d.message.find("also a declared model input") != std::string::npos)
      dedicated = true;
  EXPECT_TRUE(dedicated) << parsed.diagnostics.front().to_string();
  const auto analysis = analyze_blif(text);
  ASSERT_TRUE(has_rule(analysis.findings, "L2L-N003"));
  bool sema_names_it = false;
  for (const auto& f : analysis.findings)
    if (f.rule == "L2L-N003" &&
        f.message.find("also a declared model input") != std::string::npos)
      sema_names_it = true;
  EXPECT_TRUE(sema_names_it);
}

TEST(SemaDispatch, FormatsWithoutAPassProduceCleanReports) {
  EXPECT_TRUE(applies(Format::kBlif));
  EXPECT_TRUE(applies(Format::kCnf));
  EXPECT_TRUE(applies(Format::kPla));
  EXPECT_FALSE(applies(Format::kPlacement));
  EXPECT_FALSE(applies(Format::kUnknown));
  // A placement upload and arbitrary junk both come back clean -- sema
  // never invents findings for formats it has no pass for (--sema must
  // be uniform across the course tools).
  const auto place = analyze_text("hw.place", "cell 0 0 0\ncell 1 1 0\n");
  EXPECT_TRUE(place.findings.empty());
  const auto junk = analyze_text("mystery.bin", "total gibberish here\n");
  EXPECT_TRUE(junk.findings.empty());
  // Extension beats sniff, flag beats extension -- same ladder as lint.
  const char* cyclic =
      ".model m\n.inputs a\n.outputs y\n.names q y\n1 1\n"
      ".names y q\n1 1\n.end\n";
  EXPECT_TRUE(has_rule(analyze_text("loop.blif", cyclic).findings,
                       "L2L-N001"));
  EXPECT_TRUE(has_rule(analyze_text("loop.bin", cyclic).findings,
                       "L2L-N001"));  // sniffed
  EXPECT_TRUE(analyze_text("loop.bin", cyclic, Format::kPla)
                  .findings.empty());  // flag wins: no PLA rows present
}

TEST(SemaDispatch, MalformedArtifactsYieldNoFindings) {
  // Well-formedness is lint's job: sema stays silent rather than piling
  // semantic guesses on top of a parse wreck.
  EXPECT_TRUE(analyze_cnf("p cnf banana\n1 2 0\n").empty());
  EXPECT_TRUE(analyze_cnf("no header at all\n").empty());
  EXPECT_TRUE(analyze_pla("00 1\n.i 2\n.o 1\n.e\n").empty());
  EXPECT_TRUE(analyze_pla(".i -5\n.o 1\n00 1\n").empty());
}

// ---- grading-service integration -----------------------------------------

TEST(SemaQueue, SemanticErrorsRejectBeforeAnyEngineRuns) {
  // The acceptance criterion's service half: a submission whose payload
  // is a cyclic BLIF must come back kRejected with the grading callback
  // never invoked -- sema gates the service exactly like the lint pack.
  const std::string cyclic = read_file(
      std::string(L2L_TEST_DATA_DIR) + "/hostile/cyclic.blif");
  mooc::QueueOptions opt;
  opt.lint = mooc::sema_submission_lint(/*require_header=*/false);
  std::atomic<int> graded{0};
  const auto grade = [&](const std::string&, const util::Budget&) {
    ++graded;
    return 100.0;
  };
  const auto res = testutil::run_one_course(
      {cyclic, "course hw1\n" + cyclic, clean_text(Format::kBlif)}, grade,
      opt);
  ASSERT_EQ(res.outcomes.size(), 3u);
  EXPECT_EQ(res.outcomes[0].disposition, mooc::Disposition::kLintRejected);
  EXPECT_NE(res.outcomes[0].diagnostic.find("L2L-N001"), std::string::npos);
  // The portal header line is skipped, not analyzed as netlist text.
  EXPECT_EQ(res.outcomes[1].disposition, mooc::Disposition::kLintRejected);
  EXPECT_EQ(res.outcomes[2].disposition, mooc::Disposition::kGraded);
  EXPECT_EQ(graded.load(), 1);
  EXPECT_EQ(res.stats.lint_rejected, 2);
}

TEST(SemaQueue, HeaderRequirementComposesWithSema) {
  // --lint --sema on the service binds both behaviors: a missing course
  // header is itself an error, and a clean payload with the header
  // passes through to grading.
  const auto check = mooc::sema_submission_lint(/*require_header=*/true);
  const auto missing = check("cell 0 0 0\n");
  ASSERT_FALSE(missing.empty());
  EXPECT_EQ(missing.front().severity, util::Severity::kError);
  EXPECT_TRUE(check(std::string("course hw1\n") +
                    clean_text(Format::kBlif)).empty());
}

// ---- observability ------------------------------------------------------

TEST(SemaReport, PerRuleObsCountersTally) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  (void)analyze_files({{"dup.cnf", "p cnf 2 3\n1 2 0\n2 1 0\n-1 -2 0\n"},
                       {"stuck.blif",
                        ".model m\n.inputs a\n.outputs y\n"
                        ".names a a y\n10 1\n.end\n"}});
  const auto snap = obs::Registry::global().snapshot();
  obs::set_enabled(false);
  EXPECT_EQ(snap.counters.at("sema.files"), 2);
  EXPECT_GE(snap.counters.at("sema.rule.L2L-C101"), 1);
  EXPECT_GE(snap.counters.at("sema.rule.L2L-N006"), 1);
  EXPECT_GE(snap.counters.at("sema.findings"), 2);
}

// ---- repo artifacts and the hostile corpus ------------------------------

TEST(SemaCorpus, ShippedDataArtifactsAreSemanticallyClean) {
  // Every artifact the repo itself ships must pass its own analyzer --
  // including data/sample.cnf's pure-literal-free clause set.
  namespace fs = std::filesystem;
  for (const auto& entry : fs::directory_iterator(L2L_REPO_DATA_DIR)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const auto fr = analyze_text(name, read_file(entry.path().string()));
    EXPECT_TRUE(fr.findings.empty())
        << name << " should be semantically clean:\n"
        << (fr.findings.empty() ? "" : fr.findings.front().to_string());
  }
}

TEST(SemaCorpus, HostileFilesAreDiagnosedNeverCrash) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(L2L_TEST_DATA_DIR) / "hostile";
  int analyzed = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == "README.md") continue;
    const std::string text = read_file(entry.path().string());
    lint::FileReport fr;
    ASSERT_NO_THROW(fr = analyze_text(name, text)) << name;
    for (const auto& f : fr.findings) ASSERT_NO_THROW((void)f.to_string());
    ++analyzed;
  }
  EXPECT_GE(analyzed, 10) << "hostile corpus went missing";
  // The seeded semantic defects are found, not merely survived.
  const auto expect_rule = [&](const char* file, const char* rule) {
    const auto fr = analyze_text(
        file, read_file((dir / file).string()));
    EXPECT_TRUE(has_rule(fr.findings, rule)) << file;
  };
  expect_rule("cyclic.blif", "L2L-N001");
  expect_rule("multi_driven.blif", "L2L-N003");
  expect_rule("input_shadow.blif", "L2L-N003");
  // The 10k-gate single-SCC ring: one cycle finding, linear time, and --
  // because the Tarjan walk is iterative -- no stack overflow.
  const auto ring =
      analyze_text("scc_chain_10k.blif",
                   read_file((dir / "scc_chain_10k.blif").string()));
  EXPECT_TRUE(has_rule(ring.findings, "L2L-N001"));
}

// ---- determinism across the worker pool ---------------------------------

TEST(SemaDeterminism, ReportBytesAreThreadCountInvariant) {
  std::vector<std::pair<std::string, std::string>> batch;
  for (const auto& c : kRuleCases)
    batch.emplace_back(std::string(c.rule) + ".case", c.dirty);
  for (Format f : {Format::kBlif, Format::kCnf, Format::kPla})
    batch.emplace_back(std::string("clean.") + lint::format_name(f),
                       clean_text(f));

  std::vector<std::string> texts, jsons;
  for (const int t : {1, 2, 8}) {
    util::set_num_threads(t);
    const lint::Report r = analyze_files(batch);
    texts.push_back(r.to_text());
    jsons.push_back(r.to_json());
  }
  util::set_num_threads(0);
  EXPECT_EQ(texts[0], texts[1]);
  EXPECT_EQ(texts[0], texts[2]);
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_EQ(jsons[0], jsons[2]);
  EXPECT_NE(texts[0].find("error"), std::string::npos);
}

}  // namespace
}  // namespace l2l::sema
