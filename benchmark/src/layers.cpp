#include "layers.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bench {

void Report::fail(const std::string& why) {
  if (correct) std::cerr << "benchmark: check failed: " << why << "\n";
  correct = false;
}

double percentile(std::vector<double>& v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- call log ---------------------------------------------------------------

std::atomic<bool> CallLog::active_{false};

namespace {

struct Buffers {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Call>>> per_thread;
};

Buffers& buffers() {
  static Buffers b;
  return b;
}

}  // namespace

void CallLog::record(const Call& call) {
  // One buffer per thread, registered on first use; only its own thread
  // appends, and take() runs after the pool's join.
  thread_local std::vector<Call>* mine = nullptr;
  thread_local std::uint32_t index = 0;
  if (mine == nullptr) {
    auto& b = buffers();
    std::lock_guard<std::mutex> lock(b.mu);
    index = static_cast<std::uint32_t>(b.per_thread.size());
    b.per_thread.push_back(std::make_unique<std::vector<Call>>());
    mine = b.per_thread.back().get();
  }
  mine->push_back(call);
  mine->back().thread = index;
}

std::vector<Call> CallLog::take() {
  auto& b = buffers();
  std::lock_guard<std::mutex> lock(b.mu);
  std::vector<Call> out;
  for (auto& buf : b.per_thread) {
    out.insert(out.end(), buf->begin(), buf->end());
    buf->clear();
  }
  return out;
}

std::int64_t union_ns(std::vector<Call> calls) {
  std::sort(calls.begin(), calls.end(), [](const Call& a, const Call& b) {
    return a.start_ns < b.start_ns;
  });
  std::int64_t total = 0;
  std::int64_t lo = 0, hi = -1;
  for (const Call& c : calls) {
    if (c.start_ns > hi) {
      if (hi > lo) total += hi - lo;
      lo = c.start_ns;
      hi = c.end_ns;
    } else {
      hi = std::max(hi, c.end_ns);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

LayerTotals layer_totals(const std::vector<Call>& calls, Layer layer) {
  LayerTotals t;
  std::vector<double> us;
  for (const Call& c : calls) {
    if (c.layer != layer) continue;
    ++t.calls;
    t.flagged += c.flagged ? 1 : 0;
    const auto d = static_cast<double>(c.end_ns - c.start_ns);
    t.busy_ms += d / 1e6;
    us.push_back(d / 1e3);
  }
  t.call_p50_us = percentile(us, 50.0);
  return t;
}

SpanSum span_sum(const std::string& tracer_text, const std::string& name) {
  // Lines read "span <name> count <n> total_us <t>".
  std::istringstream in(tracer_text);
  std::string word, span_name, count_word, total_word;
  SpanSum s;
  std::int64_t count = 0, total = 0;
  while (in >> word >> span_name >> count_word >> count >> total_word >>
         total) {
    if (span_name == name) {
      s.count += count;
      s.total_us += total;
    }
  }
  return s;
}

void set_tracing(bool on) {
  if (on) {
    l2l::obs::Tracer::global().reset();
    l2l::obs::Registry::global().reset();
    CallLog::take();
  }
  l2l::obs::set_enabled(on);
  CallLog::set_active(on);
}

}  // namespace bench
