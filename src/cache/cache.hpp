#pragma once
// l2l::cache -- the content-addressed result cache behind every engine
// facade (see l2l/api.hpp) and the grading-queue submission dedup.
//
// The MOOC graded tens of thousands of near-identical ASCII submissions;
// the ROADMAP north star is "never compute the same answer twice". The
// cache delivers that as deterministic memoization:
//
//   key   = (engine id, canonical-input digest, config digest)
//   value = the engine's result, serialized to bytes by the facade
//
// Both digests come from the seedless 128-bit hash in digest.hpp, so keys
// are stable across processes, machines, and time -- which is what makes
// the optional persistent tier (L2L_CACHE_DIR) work: an entry written by
// one worker is a hit for every other worker.
//
// Determinism contract (the same one obs and the thread pool carry):
// cached and uncached runs produce byte-identical *results* -- a facade
// only stores complete, deterministic outputs, and skips the cache
// entirely for wall-clock-limited runs, whose truncation point is not
// reproducible. Hit/miss/evict counters flow through l2l::obs per-thread
// shards and export byte-identically at any L2L_THREADS *provided the
// call sequence is deterministic*; the parallel consumers (grading queue,
// batch graders) arrange that by deduplicating work in a sequential
// pre-pass, so which lookups hit and which miss never depends on the
// thread schedule.
//
// In-memory tier: an LRU sharded by key hash (fixed shard count,
// independent of L2L_THREADS), bounded in entries and bytes per shard.
// Persistent tier: one file per entry under L2L_CACHE_DIR, written to a
// temp name and atomically renamed; a versioned header plus payload
// checksum is validated on read, and a corrupt or truncated entry is
// quarantined (renamed *.quarantine) instead of crashing or being
// believed.
//
// Kill switch: L2L_CACHE=0 (or Cache-level set_enabled(false)) makes
// lookup always miss and insert a no-op, restoring compute-everything
// seed behavior exactly.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cache/digest.hpp"

namespace l2l::cache {

/// Process-wide kill switch. Defaults to on; L2L_CACHE=0/off/false/no in
/// the environment turns it off (read once, cached).
bool enabled();

/// Test/tool override of the cached kill switch.
void set_enabled(bool on);

/// The content-addressed key. `engine` is a short stable id ("sat",
/// "grader.route", "mooc.service", ...); `input` digests the canonical
/// input text; `config` digests every option that changes the result.
struct CacheKey {
  std::string engine;
  Digest128 input;
  Digest128 config;

  bool operator==(const CacheKey&) const = default;

  /// "engine-<input hex>-<config hex>" -- the persistent tier file stem.
  std::string file_stem() const;
};

struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t inserts = 0;
  std::int64_t evictions = 0;
  std::int64_t bytes = 0;    ///< current in-memory payload bytes
  std::int64_t entries = 0;  ///< current in-memory entry count
};

struct CacheOptions {
  /// In-memory bound per shard (16 fixed shards); least-recently-used
  /// entries are evicted past either limit.
  std::int64_t max_entries_per_shard = 512;
  std::int64_t max_bytes_per_shard = 8ll << 20;
  /// Persistent tier directory; empty = in-memory only. Seeded from
  /// L2L_CACHE_DIR for the global cache.
  std::string disk_dir;
};

class Cache {
 public:
  explicit Cache(CacheOptions opt = {});
  ~Cache();
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// The process-wide cache every facade shares. Its disk tier comes from
  /// L2L_CACHE_DIR (read once at first use).
  static Cache& global();

  /// Look `key` up: memory first, then the persistent tier (a disk hit is
  /// promoted into memory). nullopt on miss or when disabled.
  std::optional<std::string> lookup(const CacheKey& key);

  /// Store `value` under `key` in memory and, when a disk dir is
  /// configured, on disk (atomic rename; an existing entry is
  /// overwritten). No-op when disabled.
  void insert(const CacheKey& key, std::string_view value);

  /// Drop every in-memory entry (the disk tier is untouched). Tests use
  /// this to get a cold cache deterministically.
  void clear();

  /// Point the persistent tier somewhere else (empty = memory only).
  void set_disk_dir(std::string dir);
  std::string disk_dir() const;

  /// Merged totals across shards (monotone counters + current occupancy).
  CacheStats stats() const;

 private:
  struct Shard;
  struct Impl;
  void insert_memory_only(const CacheKey& key, std::string_view value);
  std::unique_ptr<Impl> impl_;
};

// ---- serialization helpers ----------------------------------------------
// Length-prefixed records: the facades serialize results as a sequence of
// byte strings ("<len>\n<bytes>"), immune to any escaping concerns. A
// Reader that runs past the end or over a malformed prefix reports
// failure instead of throwing -- a corrupt disk entry must degrade to a
// miss, never a crash.

/// Append one length-prefixed record to `out`.
void append_record(std::string& out, std::string_view record);

/// Append an integer / bit-exact double as a record.
void append_i64(std::string& out, std::int64_t v);
void append_f64(std::string& out, double v);

class RecordReader {
 public:
  explicit RecordReader(std::string_view data) : data_(data) {}

  /// Read the next record; false (and failed() latched) on malformed or
  /// exhausted input.
  bool next(std::string_view& record);
  bool next_i64(std::int64_t& v);
  bool next_f64(double& v);
  bool next_string(std::string& s);

  /// True when every byte was consumed and nothing failed -- facades
  /// require this before trusting a deserialized result.
  bool complete() const { return !failed_ && pos_ == data_.size(); }
  bool failed() const { return failed_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace l2l::cache
