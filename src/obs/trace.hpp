#pragma once
// Span-based tracing: ScopedSpan marks an interval of work (a flow stage,
// a SAT solve, one graded submission) and the Tracer collects completed
// spans into per-thread shards.
//
// Determinism split: every finished span also increments the counter
// `span.<name>` in the metrics registry -- span *counts* are part of the
// deterministic export. Wall-clock timestamps and durations are not; they
// appear only in the Chrome-trace JSON and in the clearly-labelled
// nondeterministic section of metrics_report().
//
// Chrome-trace export is the standard catapult format: open the file at
// chrome://tracing or https://ui.perfetto.dev and every span renders as a
// complete ("ph":"X") event on its thread's track. See DESIGN.md
// ("Observability") for what a grading-service run's trace shows.

#include <cstdint>
#include <string>
#include <string_view>

namespace l2l::obs {

/// One completed span: microsecond start offset from the tracer's anchor
/// plus duration, on the recording thread's track.
struct SpanEvent {
  std::string name;
  std::string category;
  std::int64_t start_us = 0;
  std::int64_t duration_us = 0;
  int tid = 0;
};

/// Aggregated per-name totals (for the plain-text export).
struct SpanTotal {
  std::int64_t count = 0;
  std::int64_t total_us = 0;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer every ScopedSpan reports into.
  static Tracer& global();

  /// Record a completed span (called by ~ScopedSpan; usable directly for
  /// intervals measured by other means). Shards are capped; once a thread
  /// has recorded kMaxEventsPerShard events further ones are dropped
  /// (the drop count is available as the counter `obs.trace.dropped`).
  void record(std::string_view name, std::string_view category,
              std::int64_t start_us, std::int64_t duration_us);

  /// Microseconds since this tracer's steady-clock anchor.
  std::int64_t now_us() const;

  /// Chrome-trace JSON ({"traceEvents":[...]}): load in chrome://tracing
  /// or Perfetto. Wall-clock values -- never part of deterministic output.
  std::string chrome_json() const;

  /// Plain-text aggregate: `span <name> count <n> total_us <t>` sorted by
  /// name. total_us is wall-clock and therefore nondeterministic.
  std::string text() const;

  /// Drop all recorded events and reset the clock anchor.
  void reset();

  static constexpr std::size_t kMaxEventsPerShard = std::size_t{1} << 16;

 private:
  struct Impl;
  Impl* impl_;
};

/// RAII span. The kill switch is checked once at construction; a disabled
/// span costs two branches total. On destruction the span is recorded in
/// the global tracer and `span.<name>` is incremented in the metrics
/// registry (deterministic count, nondeterministic duration).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::string_view category = "");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::string name_;
  std::string category_;
  std::int64_t start_us_ = 0;
  bool active_ = false;
};

// ---- combined report + file export --------------------------------------

/// The full metrics report: the deterministic section (registry export,
/// byte-stable across L2L_THREADS) followed by a `# nondeterministic`
/// header and the span duration aggregates.
std::string metrics_report();

/// Write metrics_report() / chrome_json() to `path`. Returns false (and
/// leaves no partial file guarantee) if the file cannot be opened.
bool write_metrics_file(const std::string& path);
bool write_trace_file(const std::string& path);

/// Tool-side helper: declare one at the top of main(), point it at the
/// --metrics/--trace paths (empty = skip), and the files are written on
/// every exit path that unwinds the stack.
class ExportOnExit {
 public:
  ExportOnExit() = default;
  ~ExportOnExit();
  ExportOnExit(const ExportOnExit&) = delete;
  ExportOnExit& operator=(const ExportOnExit&) = delete;

  std::string metrics_path;
  std::string trace_path;
};

}  // namespace l2l::obs
