// Durable, crash-safe result log for experiment sweeps (DESIGN.md §13).
//
// A ResultStore is an append-only log of per-cell sweep outcomes, one
// checksummed record per completed (or quarantined) cell. The sweep engine
// appends a record the moment a cell resolves and fsyncs it before moving
// on, so a crash — process kill, OOM, injected fault — loses at most the
// cells still in flight. Reopening the store replays every intact record;
// a torn tail (the crash interrupted the last append) is detected by the
// per-record framing + FNV-1a checksum, truncated away with a warning, and
// never refuses the load. Compaction rewrites the log through
// `io::write_file_atomic` (write-temp + fsync + rename), so the log file
// itself can never be observed half-rewritten.
//
// Record framing (all little-endian, DESIGN.md §13 table):
//
//   u32 magic 'DRS1'   u32 payload_len   u64 fnv1a64(payload)   payload
//
// with the payload serialized by io::ByteWriter: a format version byte,
// the cell key, status, attempt count, error string, and the full
// ExperimentCell (spec strings, derived metrics as f64 bit patterns, raw
// simulator counters). Records with the same key supersede each other —
// the LAST record wins on replay, so a retry after a quarantined failure
// simply appends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/experiment.hpp"

namespace dart::core {

/// Thrown when an armed `crash-after-commit` fault (common/fault.hpp) fires
/// on a durable result commit: the in-process simulation of a sweep crash.
/// The record that triggered it IS durable — resuming the sweep reuses it.
class SweepCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One durable sweep-cell outcome.
struct CellRecord {
  /// Cell identity: sweep_cell_key over (workload, prefetcher, config).
  std::uint64_t key = 0;
  /// kDone or kFailed as stored; replayed records loaded into a resumed
  /// sweep surface as kSkipped in that run's accounting.
  CellStatus status = CellStatus::kDone;
  /// Attempts consumed before the cell resolved (1 = first try succeeded).
  std::uint32_t attempts = 0;
  /// Last attempt's error text; empty for kDone records.
  std::string error;
  /// The full result payload (partially filled for kFailed records: the
  /// identity fields are set, the counters stay zero).
  ExperimentCell cell;
};

/// What the recovery scan found when the store was opened.
struct StoreRecovery {
  std::size_t records = 0;        ///< intact records replayed
  std::size_t dropped_bytes = 0;  ///< torn-tail bytes truncated away
  bool truncated = false;         ///< true when a torn tail was dropped
};

/// Identity hash of one sweep cell: chained FNV-1a over the length-prefixed
/// workload spec, prefetcher spec, and configuration key (which folds in
/// the pipeline cache key, nn trigger sampling and the engine
/// generation). Two cells collide only when they would provably produce the
/// same result.
std::uint64_t sweep_cell_key(const std::string& workload, const std::string& prefetcher,
                             const std::string& config);

/// The append-only, checksummed, resumable sweep result log.
///
/// Thread-safe: concurrent cell workers may `append` while others `find`;
/// every mutation happens under one internal mutex and every append is
/// fsync'd before it returns. After a `crash-after-commit` fault fires the
/// store latches into a crashed state and every further append throws
/// SweepCrash, so in-flight workers of a parallel sweep stop committing —
/// exactly what a real crash would do — while already-durable records
/// survive for the resume.
class ResultStore {
 public:
  /// Opens (creating the directory and an empty log if needed) and replays
  /// `dir`/results.log. Torn tails are truncated — in memory and on disk —
  /// with a stderr warning naming the path and byte offset; an unreadable
  /// directory throws io::ArtifactError. The armed fault injector's
  /// `mutate_store` hook may chop the loaded image first (chaos tests).
  explicit ResultStore(std::string dir);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// The store directory as given.
  const std::string& dir() const { return dir_; }
  /// Path of the active log segment.
  const std::string& log_path() const { return path_; }
  /// What the opening recovery scan found.
  const StoreRecovery& recovery() const { return recovery_; }

  /// Number of distinct cell keys currently stored (last record wins).
  std::size_t size() const;
  /// Copies the latest record for `key` into `*out` and returns true;
  /// false when absent. A copy, not a pointer — the internal slot may be
  /// superseded by a concurrent append.
  bool find(std::uint64_t key, CellRecord* out) const;
  /// Snapshot of the latest record per key, in first-appended order.
  std::vector<CellRecord> records() const;

  /// Durably appends `rec`: serializes, appends to the log, fsyncs, then
  /// consults the fault injector's commit hook — which may throw SweepCrash
  /// or `_Exit(kCrashExitCode)` AFTER the record is safely on disk. Throws
  /// SweepCrash immediately when the store already crashed, and
  /// io::ArtifactError on real I/O failure.
  void append(const CellRecord& rec);

  /// Rewrites the log to contain exactly the latest record per key, via
  /// write-temp + fsync + atomic rename. Safe to crash at any point: the
  /// old or the new log survives, never a torn one. Reclaims the space of
  /// superseded retry records.
  void compact();

 private:
  void replay_and_recover();
  void open_append_fd();

  std::string dir_;
  std::string path_;
  StoreRecovery recovery_;

  mutable std::mutex mu_;
  std::vector<CellRecord> records_;                       ///< latest per key
  std::unordered_map<std::uint64_t, std::size_t> index_;  ///< key -> slot
  int fd_ = -1;           ///< append fd (POSIX); -1 on non-unix fallback
  bool crashed_ = false;  ///< latched by a fired crash-after-commit fault
};

}  // namespace dart::core
