#pragma once
// Pre-grade submission checks for the grading service: factories
// producing the QueueOptions::lint callback. Kept in its own translation
// unit so the service core stays free of the lint/sema dependency -- only
// deployments that opt into pre-grade checking link the analyzer in.

#include <functional>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace l2l::mooc {

/// The QueueOptions::lint shape: body in, diagnostics out. Any
/// error-severity diagnostic rejects the submission (kRejected) without
/// spending a grading attempt -- including on the breaker-open degraded
/// path, which still runs this callback.
using SubmissionLint =
    std::function<std::vector<util::Diagnostic>(const std::string&)>;

/// Semantic pre-grade: run l2l::sema on each submission body. The portal
/// "course <name> <assignment>" header line is skipped when present and
/// the remainder is format-sniffed (BLIF/CNF/PLA get their passes, other
/// formats pass clean). With `require_header`, a missing header line is
/// itself an error -- the generated-trace portal rule, composed here so
/// `--lint --sema` keeps both behaviors. Pure in the bytes: verdicts
/// replay deterministically.
SubmissionLint sema_submission_lint(bool require_header = false);

}  // namespace l2l::mooc
