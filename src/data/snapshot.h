// Versioned binary columnar snapshots of a trajectory corpus, and the
// mmap-backed CorpusSnapshot handle the engine builds zero-copy SoA reads
// over.
//
// Motivation (see README.md "Snapshot format"): CSV ingest re-parses text
// and re-derives every per-trajectory statistic on each process start. A
// snapshot persists the corpus in the exact layout the query path consumes
// — SoA coordinate columns, the per-trajectory MBR cache, and the planner's
// corpus statistics — so opening one is a mmap plus a checksum pass instead
// of a parse-and-rebuild.
//
// On-disk layout, version 1 (all fields 8 bytes, so every section is
// naturally aligned once the file is mapped; see the diagram in README.md):
//
//   header (96 bytes):
//     magic              8 × char   "SIMSUBSN"
//     version            u64        1
//     endianness marker  u64        0x0102030405060708 (host order)
//     trajectory_count   u64
//     total_points       u64
//     payload_checksum   u64        word-FNV over everything after the header
//     extent             4 × f64    min_x, min_y, max_x, max_y
//     mean_traj_width    f64        corpus stats for the planner
//     mean_traj_height   f64
//   payload:
//     ids       trajectory_count × i64
//     offsets   (trajectory_count + 1) × u64   point ranges, offsets[0] = 0
//     mbrs      trajectory_count × 4 f64       per-trajectory MBR cache
//     x         total_points × f64             SoA coordinate columns
//     y         total_points × f64
//     t         total_points × f64             timestamps (round-trip only)
//
// Versioning rules: the layout above is frozen for version 1. Any layout
// change — new section, reordered fields, different widths — bumps the
// version, and readers reject versions they do not understand (no silent
// best-effort decoding). Snapshots are written in host byte order; the
// endianness marker lets a foreign-endian reader fail with a clear error
// instead of decoding garbage. The checksum covers the payload, so
// truncation and bit corruption are both caught at open time.
#ifndef SIMSUB_DATA_SNAPSHOT_H_
#define SIMSUB_DATA_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "geo/mbr.h"
#include "geo/points_store.h"
#include "geo/trajectory.h"
#include "util/status.h"

namespace simsub::data {

/// Writes `dataset` as a version-1 snapshot at `path` (overwriting).
///
/// Crash-safe: the bytes go to `<path>.tmp.<pid>`, which is fsynced,
/// atomically renamed over `path`, and made durable with a directory
/// fsync. A crash at any point leaves either the old `path` intact plus
/// at most an orphaned temp file (see RecoverSnapshotDir), or the new
/// snapshot fully published — never a partially written `path`.
[[nodiscard]] util::Status WriteSnapshot(const Dataset& dataset, const std::string& path);

/// What RecoverSnapshotDir found and did.
struct SnapshotRecovery {
  /// Snapshot files that opened clean (checksum verified).
  std::vector<std::string> healthy;
  /// Files moved out of the way, with their new `*.corrupt` names:
  /// orphaned `*.tmp.<pid>` files from a crashed writer, and files with
  /// snapshot magic that fail to open (truncation, checksum mismatch).
  std::vector<std::string> quarantined;
};

/// Startup recovery for a directory of snapshots: quarantines crashed-
/// writer temp files and corrupt snapshots to `<name>.corrupt` instead of
/// letting them error a later open or be mistaken for live data. Files
/// without snapshot magic are left untouched. Must not run concurrently
/// with a live writer in the same directory (a writer's in-progress temp
/// file would be quarantined from under it).
[[nodiscard]] util::Result<SnapshotRecovery> RecoverSnapshotDir(
    const std::string& dir);

struct SnapshotOpenOptions {
  /// Verify the payload checksum at open (one streaming pass over the file).
  /// Turning it off makes open O(1) — for callers that trust the file, e.g.
  /// re-opening a snapshot this process just wrote.
  bool verify_checksum = true;
  /// Map the file (zero-copy, pages faulted on demand). When false the file
  /// is read into a heap buffer instead — same interface, for filesystems
  /// without mmap or for measuring the difference.
  bool use_mmap = true;
};

/// An opened snapshot: zero-copy SoA columns over the mapping plus the
/// decoded trajectory table (ids, MBRs, corpus stats). Immutable; share it
/// freely. The file mapping lives until the last PointsStore handle (and
/// this object) is destroyed.
class CorpusSnapshot {
 public:
  /// Maps and validates the snapshot at `path`. Fails with a descriptive
  /// status on missing/truncated files, bad magic, unsupported versions,
  /// foreign endianness, malformed offsets, or checksum mismatch.
  [[nodiscard]] static util::Result<std::shared_ptr<const CorpusSnapshot>> Open(
      const std::string& path, const SnapshotOpenOptions& options = {});

  /// Opens a snapshot from in-memory bytes — the same validation path as
  /// Open (magic, version, endianness, counts, size, checksum, offsets),
  /// minus the file system. The bytes are copied into a private
  /// heap-backed, 8-byte-aligned buffer, so the caller's span may be
  /// unaligned and may be freed as soon as the call returns. This is the
  /// entry point the fuzz harness and the corruption tests drive: hostile
  /// bytes in, typed status out, no temp-file churn.
  /// `options.use_mmap` is meaningless here and ignored.
  [[nodiscard]] static util::Result<std::shared_ptr<const CorpusSnapshot>>
  OpenFromBuffer(std::span<const uint8_t> bytes,
                 const SnapshotOpenOptions& options = {});

  size_t trajectory_count() const { return ids_.size(); }
  int64_t total_points() const { return total_points_; }

  /// Trajectory ids in corpus order (ordinal -> id).
  const std::vector<int64_t>& ids() const { return ids_; }

  /// Per-trajectory MBRs, decoded from the persisted MBR section — the
  /// engine's MBR cache without the per-point rebuild.
  const std::vector<geo::Mbr>& mbrs() const { return mbrs_; }

  /// Persisted corpus statistics (extent, mean MBR dimensions) for the
  /// planner.
  const geo::CorpusStats& stats() const { return stats_; }

  /// SoA columns over the mapped file; the store shares ownership of the
  /// mapping, so it may outlive this object.
  const std::shared_ptr<const geo::PointsStore>& store() const {
    return store_;
  }

  /// Zero-copy SoA view of one trajectory.
  geo::PointsView Soa(size_t ordinal) const {
    return store_->TrajectoryView(ordinal);
  }

  /// Materializes trajectory `ordinal` as an owning AoS Trajectory
  /// (interleaving x/y/t from the columns; keeps the persisted id).
  geo::Trajectory MaterializeTrajectory(size_t ordinal) const;

  /// Materializes the whole corpus in order — the engine's AoS database.
  std::vector<geo::Trajectory> MaterializeTrajectories() const;

 private:
  CorpusSnapshot() = default;

  /// The one validation-and-construction path both open routes funnel
  /// through. `data`/`size` must stay valid for the snapshot's lifetime
  /// (guaranteed by `keep_alive`), `data` must be 8-byte aligned, and
  /// `origin` names the byte source for error messages.
  [[nodiscard]] static util::Result<std::shared_ptr<const CorpusSnapshot>>
  OpenValidated(const unsigned char* data, size_t size,
                const std::string& origin, bool verify_checksum,
                std::shared_ptr<const void> keep_alive);

  std::shared_ptr<const geo::PointsStore> store_;
  const uint64_t* offsets_ = nullptr;  // offsets table, into the mapping
  const double* t_ = nullptr;          // timestamp column, into the mapping
  std::vector<int64_t> ids_;
  std::vector<geo::Mbr> mbrs_;
  geo::CorpusStats stats_;
  int64_t total_points_ = 0;
  /// Keeps the mapping alive for t_ (store_ holds its own reference).
  std::shared_ptr<const void> mapping_;
};

}  // namespace simsub::data

#endif  // SIMSUB_DATA_SNAPSHOT_H_
