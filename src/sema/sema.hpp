#pragma once
// l2l::sema -- semantic static analysis over *parsed* artifacts, the layer
// between l2l::lint (textual rule packs) and the engines. Lint answers
// "is this file well-formed?"; sema answers "does this design mean
// anything?" -- the classic autograder diagnoses the MOOC forum asked for:
// combinational loops, undriven and multiply-driven nets, dead logic,
// nets provably stuck at a constant, structurally duplicate gates,
// redundant or contradictory PLA cubes, and CNF defects (duplicate /
// tautological clauses, pure literals, unit-implied contradictions)
// detected without spending a solver budget.
//
// Findings reuse the lint::Finding shape and the lint report renderers,
// but live in their own registry with their own stable ID ranges so the
// two layers version independently:
//
//   L2L-N0xx  network semantics (BLIF name graph)
//   L2L-C1xx  DIMACS CNF semantics
//   L2L-P1xx  PLA semantics
//
// Determinism contract (same as lint and the engines): passes never
// throw, never allocate proportionally to a hostile header, and a sema
// Report renders byte-identically at any L2L_THREADS value. Per-rule obs
// counters use the "sema.rule.<ID>" namespace.
//
// The network pass runs on network::BlifStructure -- the name-level graph
// BEFORE salvage -- because network::Network is acyclic by construction
// and cannot even represent the defects this pass exists to explain.
// Algorithm notes live in DESIGN.md "Semantic analysis".

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/lint.hpp"
#include "network/network.hpp"
#include "util/status.hpp"

namespace l2l::sema {

using lint::Finding;

// ---- rule registry ------------------------------------------------------

/// Every sema rule, grouped by pack (N, C, P) with IDs ascending inside
/// each group -- the `l2l-lint --sema --rules` print order. Reuses the
/// lint::RuleInfo shape; deliberately NOT part of lint::all_rules() (the
/// two registries version independently and lint's tests pin its table).
const std::vector<lint::RuleInfo>& all_rules();

/// Lookup by ID; nullptr when unknown.
const lint::RuleInfo* rule_info(std::string_view id);

// ---- network pass -------------------------------------------------------

/// Network-pass result. `stuck_at` carries the L2L-N006 verdicts in a
/// machine-checkable form so the differential suite can BDD-verify every
/// claimed constant (sema must never cry wolf).
struct NetworkAnalysis {
  std::vector<Finding> findings;  ///< sorted (lint::sort_findings order)
  /// (net name, constant value) per stuck-at verdict, in name order.
  std::vector<std::pair<std::string, bool>> stuck_at;
};

/// Analyze BLIF text: structural parse (network::parse_blif_structure),
/// then the N-pack over the name graph. Never throws.
NetworkAnalysis analyze_blif(const std::string& text);

/// Analyze an already-built network (no line anchors; findings carry
/// line 0). Shares every rule with analyze_blif -- the differential suite
/// runs this form directly on gen:: networks.
NetworkAnalysis analyze_network(const network::Network& net);

// ---- CNF / PLA passes ---------------------------------------------------

/// DIMACS CNF semantics: duplicate clauses modulo literal order,
/// tautological clauses, pure literals, and unit-propagation
/// contradictions -- all without constructing a solver. Malformed files
/// yield no findings (that is lint's job). Never throws.
std::vector<Finding> analyze_cnf(const std::string& text);

/// PLA semantics via the packed-cube kernels: contained/redundant cubes,
/// contradictory intersecting rows, and ON/DC overlaps, per output plane.
/// Malformed headers or rows are skipped silently (lint's job). Never
/// throws.
std::vector<Finding> analyze_pla(const std::string& text);

// ---- dispatch -----------------------------------------------------------

/// True when a sema pass exists for the format (BLIF, CNF, PLA). The
/// other lint formats are accepted by the dispatch and yield an empty
/// report -- the `--sema` flag is uniform across tools by design.
bool applies(lint::Format format);

/// Analyze one in-memory artifact. Resolves the format exactly like
/// lint_text (flag > extension > content sniff), runs the pass, sorts
/// the findings, and bumps the per-rule obs counters
/// ("sema.rule.<ID>"). Formats without a pass produce a clean report.
/// Never throws.
lint::FileReport analyze_text(const std::string& name,
                              const std::string& text,
                              lint::Format format = lint::Format::kAuto);

/// Analyze many artifacts across the worker pool (one task per file).
/// Result order matches input order; byte-identical at any L2L_THREADS.
lint::Report analyze_files(
    const std::vector<std::pair<std::string, std::string>>& named_texts,
    lint::Format format = lint::Format::kAuto);

/// Grading-service adapter: sniff the submission body (skipping the portal
/// "course ..." header line when present) and return the findings as
/// grader-facing diagnostics -- the shape mooc::QueueOptions::lint wants.
/// Error-severity findings make the service reject pre-grade; warnings and
/// notes ride along in the outcome. Never throws.
std::vector<util::Diagnostic> analyze_submission(const std::string& body);

}  // namespace l2l::sema
