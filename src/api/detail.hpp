#pragma once
// Shared plumbing for the engine facades in src/api/: the one cache
// round trip every cached facade makes (cached_call), and serialization
// of the cross-cutting value types (Status, Diagnostic) into the cache's
// length-prefixed record format.
//
// Internal to the api module -- tools and subsystems include the facade
// headers (or the l2l/api.hpp umbrella), never this.

#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "util/status.hpp"

namespace l2l::api::detail {

/// Stores every computed result; see cached_call's `storable`.
struct AlwaysStorable {
  template <class Result>
  bool operator()(const Result&) const {
    return true;
  }
};

/// The facades' one cache round trip. A facade supplies only what is
/// engine-specific:
///   cacheable       its request-level rule (RequestBase::cacheable() plus
///                   any engine condition, e.g. a null options.budget);
///   make_key()      -> cache::CacheKey, called only when cacheable;
///   compute()       -> Result, the uncached engine run;
///   write(out, r)   appends r's payload records to `out`;
///   read(in, r)     decodes them back, false on a malformed payload;
///   storable(r)     false for a result that must not be stored.
/// When `cacheable` and cache::enabled(): one lookup; a hit that `read`
/// decodes and that leaves no trailing bytes is returned with
/// `cached = true`. Anything else -- miss, short, long or lying payload
/// -- computes, and a storable result is inserted exactly once.
template <class Result, class MakeKey, class Compute, class Write, class Read,
          class Storable = AlwaysStorable>
Result cached_call(bool cacheable, MakeKey&& make_key, Compute&& compute,
                   Write&& write, Read&& read, Storable&& storable = {}) {
  if (!cacheable || !cache::enabled()) return compute();
  const cache::CacheKey key = make_key();
  if (const auto hit = cache::Cache::global().lookup(key)) {
    Result res;
    cache::RecordReader in(*hit);
    if (read(in, res) && in.complete()) {
      res.cached = true;
      return res;
    }
  }
  Result res = compute();
  if (storable(res)) {
    std::string bytes;
    write(bytes, res);
    cache::Cache::global().insert(key, bytes);
  }
  return res;
}

/// Append a Status as (code, message) records.
void append_status(std::string& out, const util::Status& status);
bool read_status(cache::RecordReader& in, util::Status& status);

/// Append a Diagnostic list as (count, then per-entry severity/line/
/// column/message) records.
void append_diagnostics(std::string& out,
                        const std::vector<util::Diagnostic>& diags);
bool read_diagnostics(cache::RecordReader& in,
                      std::vector<util::Diagnostic>& diags);

}  // namespace l2l::api::detail
