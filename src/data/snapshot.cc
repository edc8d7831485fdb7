#include "data/snapshot.h"

#include <dirent.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "util/io.h"
#include "util/logging.h"

namespace simsub::data {

namespace {

// ---- Format constants (see the layout comment in snapshot.h). -------------

constexpr char kMagic[8] = {'S', 'I', 'M', 'S', 'U', 'B', 'S', 'N'};
constexpr uint64_t kVersion = 1;
constexpr uint64_t kEndianMarker = 0x0102030405060708ull;
constexpr size_t kHeaderSize = 96;
// Upper bound on counts read from untrusted headers, chosen so the payload
// size computation below cannot overflow uint64.
constexpr uint64_t kMaxCount = 1ull << 40;

// The MBR section is written as the raw geo::Mbr array; pin the layout the
// format depends on so a struct change cannot silently corrupt snapshots.
static_assert(std::is_trivially_copyable_v<geo::Mbr>);
static_assert(sizeof(geo::Mbr) == 4 * sizeof(double));
static_assert(offsetof(geo::Mbr, min_x) == 0);
static_assert(offsetof(geo::Mbr, min_y) == 8);
static_assert(offsetof(geo::Mbr, max_x) == 16);
static_assert(offsetof(geo::Mbr, max_y) == 24);

uint64_t ByteSwap64(uint64_t v) {
  return ((v & 0x00000000000000ffull) << 56) |
         ((v & 0x000000000000ff00ull) << 40) |
         ((v & 0x0000000000ff0000ull) << 24) |
         ((v & 0x00000000ff000000ull) << 8) |
         ((v & 0x000000ff00000000ull) >> 8) |
         ((v & 0x0000ff0000000000ull) >> 24) |
         ((v & 0x00ff000000000000ull) >> 40) |
         ((v & 0xff00000000000000ull) >> 56);
}

/// FNV-1a folded over 8-byte words instead of bytes: the payload is 8-byte
/// granular by construction, and the word-wide variant checksums at memory
/// speed instead of one multiply per byte (this pass dominates verified
/// snapshot opens).
class WordHasher {
 public:
  /// `bytes` must be a multiple of 8 and `data` 8-byte aligned.
  void Update(const void* data, size_t bytes) {
    SIMSUB_DCHECK_EQ(bytes % 8, 0u);
    const uint64_t* w = static_cast<const uint64_t*>(data);
    uint64_t h = hash_;
    for (size_t i = 0; i < bytes / 8; ++i) {
      h = (h ^ w[i]) * 0x100000001b3ull;
    }
    hash_ = h;
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

size_t PayloadSize(uint64_t count, uint64_t total_points) {
  return static_cast<size_t>(count * sizeof(int64_t) +            // ids
                             (count + 1) * sizeof(uint64_t) +     // offsets
                             count * sizeof(geo::Mbr) +           // mbrs
                             3 * total_points * sizeof(double));  // x, y, t
}

// ---- Header encoding. ------------------------------------------------------

struct Header {
  uint64_t version = kVersion;
  uint64_t trajectory_count = 0;
  uint64_t total_points = 0;
  uint64_t payload_checksum = 0;
  geo::CorpusStats stats;
};

void EncodeHeader(const Header& h, unsigned char out[kHeaderSize]) {
  std::memcpy(out, kMagic, 8);
  std::memcpy(out + 8, &h.version, 8);
  std::memcpy(out + 16, &kEndianMarker, 8);
  std::memcpy(out + 24, &h.trajectory_count, 8);
  std::memcpy(out + 32, &h.total_points, 8);
  std::memcpy(out + 40, &h.payload_checksum, 8);
  std::memcpy(out + 48, &h.stats.extent.min_x, 8);
  std::memcpy(out + 56, &h.stats.extent.min_y, 8);
  std::memcpy(out + 64, &h.stats.extent.max_x, 8);
  std::memcpy(out + 72, &h.stats.extent.max_y, 8);
  std::memcpy(out + 80, &h.stats.mean_trajectory_width, 8);
  std::memcpy(out + 88, &h.stats.mean_trajectory_height, 8);
}

util::Status DecodeHeader(const unsigned char* data, const std::string& path,
                          Header* out) {
  if (std::memcmp(data, kMagic, 8) != 0) {
    return util::Status::InvalidArgument("not a simsub snapshot (bad magic): " +
                                         path);
  }
  uint64_t endian;
  std::memcpy(&out->version, data + 8, 8);
  std::memcpy(&endian, data + 16, 8);
  if (endian == ByteSwap64(kEndianMarker)) {
    return util::Status::InvalidArgument(
        "snapshot was written on a foreign-endian machine: " + path);
  }
  if (endian != kEndianMarker) {
    return util::Status::InvalidArgument(
        "corrupt snapshot header (bad endianness marker): " + path);
  }
  if (out->version != kVersion) {
    return util::Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(out->version) +
        " (this reader understands version " + std::to_string(kVersion) +
        "): " + path);
  }
  std::memcpy(&out->trajectory_count, data + 24, 8);
  std::memcpy(&out->total_points, data + 32, 8);
  std::memcpy(&out->payload_checksum, data + 40, 8);
  std::memcpy(&out->stats.extent.min_x, data + 48, 8);
  std::memcpy(&out->stats.extent.min_y, data + 56, 8);
  std::memcpy(&out->stats.extent.max_x, data + 64, 8);
  std::memcpy(&out->stats.extent.max_y, data + 72, 8);
  std::memcpy(&out->stats.mean_trajectory_width, data + 80, 8);
  std::memcpy(&out->stats.mean_trajectory_height, data + 88, 8);
  return util::Status::OK();
}

// ---- Read-side file backing: mmap or a heap buffer (via util/io). ----------

class FileBacking {
 public:
  static util::Result<std::shared_ptr<FileBacking>> Open(
      const std::string& path, bool use_mmap) {
    auto backing = std::shared_ptr<FileBacking>(new FileBacking());
    if (use_mmap) {
      auto map = util::io::MapFileReadOnly(path);
      if (!map.ok()) {
        if (map.status().code() == util::StatusCode::kInvalidArgument) {
          // Empty file: report it as the truncation it is.
          return util::Status::InvalidArgument(
              "truncated snapshot (empty file): " + path);
        }
        return map.status();
      }
      backing->map_ = std::move(map).value();
      return backing;
    }
    // Buffered fallback: read the whole file into the heap (aligned for
    // the word-wide checksum by the allocator).
    auto bytes = util::io::ReadFileBytes(path);
    if (!bytes.ok()) return bytes.status();
    backing->buffer_ = std::move(bytes).value();
    return backing;
  }

  const unsigned char* data() const {
    return map_ != nullptr ? map_->data() : buffer_.data();
  }
  size_t size() const { return map_ != nullptr ? map_->size() : buffer_.size(); }

 private:
  FileBacking() = default;
  std::shared_ptr<const util::io::MMapping> map_;
  std::vector<unsigned char> buffer_;
};

util::Status WriteChunk(util::io::File* f, WordHasher* hasher,
                        const void* data, size_t bytes) {
  if (bytes == 0) return util::Status::OK();
  hasher->Update(data, bytes);
  return f->WriteAll(data, bytes);
}

}  // namespace

// ---- Writer. ---------------------------------------------------------------

util::Status WriteSnapshot(const Dataset& dataset, const std::string& path) {
  const size_t count = dataset.trajectories.size();

  // Trajectory table: ids, offsets, MBRs (computed exactly as the engine's
  // constructor computes its MBR cache, in corpus order).
  std::vector<int64_t> ids;
  std::vector<uint64_t> offsets;
  std::vector<geo::Mbr> mbrs;
  ids.reserve(count);
  offsets.reserve(count + 1);
  mbrs.reserve(count);
  offsets.push_back(0);
  uint64_t total = 0;
  for (const geo::Trajectory& t : dataset.trajectories) {
    ids.push_back(t.id());
    total += static_cast<uint64_t>(t.size());
    offsets.push_back(total);
    mbrs.push_back(geo::ComputeMbr(t.View()));
  }

  Header header;
  header.trajectory_count = count;
  header.total_points = total;
  header.stats = geo::ComputeCorpusStats(mbrs);

  // Crash-safety protocol: write everything to a temp file next to the
  // target, fsync it, atomically rename over `path`, then fsync the
  // directory so the rename itself is durable. An error path removes the
  // temp file; a *crash* leaves it orphaned for RecoverSnapshotDir to
  // quarantine — the published `path` is never in a half-written state.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  auto opened = util::io::File::CreateTruncated(tmp);
  if (!opened.ok()) return opened.status();
  util::io::File f = std::move(opened).value();
  auto fail = [&](const util::Status& cause) {
    (void)f.Close();
    (void)util::io::RemoveFile(tmp);
    return util::Status::IOError("snapshot write failed: " + path + " (" +
                                 cause.message() + ")");
  };

  // Header placeholder first (checksum not known yet), payload streamed
  // through the hasher, then the finalized header over the placeholder.
  unsigned char encoded[kHeaderSize];
  EncodeHeader(header, encoded);
  util::Status st = f.WriteAll(encoded, kHeaderSize);
  if (!st.ok()) return fail(st);

  WordHasher hasher;
  st = WriteChunk(&f, &hasher, ids.data(), ids.size() * sizeof(int64_t));
  if (st.ok()) {
    st = WriteChunk(&f, &hasher, offsets.data(),
                    offsets.size() * sizeof(uint64_t));
  }
  if (st.ok()) {
    st = WriteChunk(&f, &hasher, mbrs.data(), mbrs.size() * sizeof(geo::Mbr));
  }
  if (!st.ok()) return fail(st);
  // Coordinate columns, one pass per column so the file is truly columnar;
  // each trajectory is staged through a small contiguous buffer.
  std::vector<double> column;
  for (int c = 0; c < 3; ++c) {
    for (const geo::Trajectory& t : dataset.trajectories) {
      column.clear();
      column.reserve(static_cast<size_t>(t.size()));
      for (const geo::Point& p : t.points()) {
        column.push_back(c == 0 ? p.x : c == 1 ? p.y : p.t);
      }
      st = WriteChunk(&f, &hasher, column.data(),
                      column.size() * sizeof(double));
      if (!st.ok()) return fail(st);
    }
  }

  header.payload_checksum = hasher.hash();
  EncodeHeader(header, encoded);
  st = f.SeekTo(0);
  if (st.ok()) st = f.WriteAll(encoded, kHeaderSize);
  if (st.ok()) st = f.Sync();
  if (st.ok()) st = f.Close();
  if (!st.ok()) return fail(st);
  st = util::io::RenameFile(tmp, path);
  if (!st.ok()) return fail(st);
  return util::io::SyncDir(util::io::DirName(path));
}

// ---- Recovery. -------------------------------------------------------------

namespace {

/// True for `<anything>.tmp.<digits>` — the temp-file shape WriteSnapshot
/// uses, left behind only by a writer that died mid-write.
bool IsOrphanTempName(const std::string& name) {
  const size_t at = name.rfind(".tmp.");
  if (at == std::string::npos) return false;
  const std::string digits = name.substr(at + 5);
  if (digits.empty()) return false;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// First unused `<path>.corrupt[.k]` quarantine name.
std::string QuarantineName(const std::string& path) {
  std::string dest = path + ".corrupt";
  for (int k = 1; ::access(dest.c_str(), F_OK) == 0; ++k) {
    dest = path + ".corrupt." + std::to_string(k);
  }
  return dest;
}

}  // namespace

util::Result<SnapshotRecovery> RecoverSnapshotDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return util::Status::IOError("cannot open snapshot directory: " + dir);
  }
  std::vector<std::string> names;
  for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;  // ".", "..", dotfiles
    names.push_back(e->d_name);
  }
  ::closedir(d);

  SnapshotRecovery recovery;
  bool renamed_any = false;
  for (const std::string& name : names) {
    if (name.find(".corrupt") != std::string::npos) continue;  // prior run
    const std::string path = dir + "/" + name;
    if (IsOrphanTempName(name)) {
      const std::string dest = QuarantineName(path);
      SIMSUB_RETURN_IF_ERROR(util::io::RenameFile(path, dest));
      recovery.quarantined.push_back(dest);
      renamed_any = true;
      continue;
    }
    // Only files carrying snapshot magic are candidates; everything else
    // in the directory is none of our business.
    {
      auto probe = util::io::File::OpenRead(path);
      if (!probe.ok()) continue;  // raced away / unreadable: leave it
      char magic[8] = {};
      auto size = probe->Size();
      if (!size.ok() || *size < 8) continue;
      if (!probe->ReadExact(magic, 8).ok()) continue;
      if (std::memcmp(magic, kMagic, 8) != 0) continue;
    }
    auto opened = CorpusSnapshot::Open(path);
    if (opened.ok()) {
      recovery.healthy.push_back(path);
      continue;
    }
    if (opened.status().code() == util::StatusCode::kInvalidArgument) {
      // Deterministically corrupt (truncation, checksum, bad header):
      // quarantine so the serve can start on what is left.
      const std::string dest = QuarantineName(path);
      SIMSUB_RETURN_IF_ERROR(util::io::RenameFile(path, dest));
      recovery.quarantined.push_back(dest);
      renamed_any = true;
    }
    // Transient IOError: leave the file alone (quarantine only on proof).
  }
  if (renamed_any) {
    SIMSUB_RETURN_IF_ERROR(util::io::SyncDir(dir));
  }
  return recovery;
}

// ---- Reader. ---------------------------------------------------------------

util::Result<std::shared_ptr<const CorpusSnapshot>> CorpusSnapshot::Open(
    const std::string& path, const SnapshotOpenOptions& options) {
  auto backing = FileBacking::Open(path, options.use_mmap);
  if (!backing.ok()) return backing.status();
  const unsigned char* data = (*backing)->data();
  const size_t size = (*backing)->size();
  return OpenValidated(data, size, path, options.verify_checksum, *backing);
}

util::Result<std::shared_ptr<const CorpusSnapshot>>
CorpusSnapshot::OpenFromBuffer(std::span<const uint8_t> bytes,
                               const SnapshotOpenOptions& options) {
  // Copy into allocator-aligned heap storage: the zero-copy section
  // pointers below are int64/double typed, and the caller's span carries
  // no alignment (or lifetime) guarantee.
  auto owned = std::make_shared<std::vector<unsigned char>>(bytes.begin(),
                                                            bytes.end());
  const unsigned char* data = owned->data();
  const size_t size = owned->size();
  return OpenValidated(data, size, "<buffer>", options.verify_checksum,
                       std::move(owned));
}

util::Result<std::shared_ptr<const CorpusSnapshot>>
CorpusSnapshot::OpenValidated(const unsigned char* data, size_t size,
                              const std::string& origin, bool verify_checksum,
                              std::shared_ptr<const void> keep_alive) {
  if (size < kHeaderSize) {
    return util::Status::InvalidArgument(
        "truncated snapshot (" + std::to_string(size) + " bytes, header is " +
        std::to_string(kHeaderSize) + "): " + origin);
  }
  Header header;
  SIMSUB_RETURN_IF_ERROR(DecodeHeader(data, origin, &header));
  if (header.trajectory_count > kMaxCount || header.total_points > kMaxCount) {
    return util::Status::InvalidArgument(
        "corrupt snapshot header (implausible counts): " + origin);
  }
  const size_t payload_size =
      PayloadSize(header.trajectory_count, header.total_points);
  if (size != kHeaderSize + payload_size) {
    return util::Status::InvalidArgument(
        "truncated snapshot (expected " +
        std::to_string(kHeaderSize + payload_size) + " bytes, got " +
        std::to_string(size) + "): " + origin);
  }

  const unsigned char* payload = data + kHeaderSize;
  if (verify_checksum) {
    WordHasher hasher;
    hasher.Update(payload, payload_size);
    if (hasher.hash() != header.payload_checksum) {
      return util::Status::InvalidArgument(
          "snapshot checksum mismatch (corrupt file): " + origin);
    }
  }

  const size_t count = static_cast<size_t>(header.trajectory_count);
  const size_t total = static_cast<size_t>(header.total_points);
  const int64_t* ids = reinterpret_cast<const int64_t*>(payload);
  const uint64_t* offsets =
      reinterpret_cast<const uint64_t*>(payload + count * sizeof(int64_t));
  const geo::Mbr* mbrs = reinterpret_cast<const geo::Mbr*>(
      payload + count * sizeof(int64_t) + (count + 1) * sizeof(uint64_t));
  const double* x = reinterpret_cast<const double*>(mbrs + count);
  const double* y = x + total;
  const double* t = y + total;

  if (offsets[0] != 0 || offsets[count] != header.total_points) {
    return util::Status::InvalidArgument(
        "corrupt snapshot (bad offsets table): " + origin);
  }
  for (size_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return util::Status::InvalidArgument(
          "corrupt snapshot (non-monotone offsets): " + origin);
    }
  }

  auto snapshot = std::shared_ptr<CorpusSnapshot>(new CorpusSnapshot());
  snapshot->mapping_ = keep_alive;
  snapshot->offsets_ = offsets;
  snapshot->t_ = t;
  snapshot->total_points_ = static_cast<int64_t>(total);
  snapshot->ids_.assign(ids, ids + count);
  snapshot->mbrs_.assign(mbrs, mbrs + count);
  snapshot->stats_ = header.stats;
  snapshot->store_ = std::make_shared<const geo::PointsStore>(
      geo::PointsStore::FromColumns(x, y, offsets, count,
                                    std::move(keep_alive)));
  return std::shared_ptr<const CorpusSnapshot>(std::move(snapshot));
}

geo::Trajectory CorpusSnapshot::MaterializeTrajectory(size_t ordinal) const {
  SIMSUB_CHECK_LT(ordinal, trajectory_count());
  const size_t lo = static_cast<size_t>(offsets_[ordinal]);
  const size_t hi = static_cast<size_t>(offsets_[ordinal + 1]);
  const geo::PointsView all = store_->All();
  // Offsets were proven monotone at open time, so hi >= lo here.
  SIMSUB_DCHECK_GE(hi, lo);
  std::vector<geo::Point> points;
  points.reserve(hi - lo);
  for (size_t i = lo; i < hi; ++i) {
    points.emplace_back(all.x[i], all.y[i], t_[i]);
  }
  return geo::Trajectory(std::move(points), ids_[ordinal]);
}

std::vector<geo::Trajectory> CorpusSnapshot::MaterializeTrajectories() const {
  std::vector<geo::Trajectory> out;
  out.reserve(trajectory_count());
  for (size_t i = 0; i < trajectory_count(); ++i) {
    out.push_back(MaterializeTrajectory(i));
  }
  return out;
}

}  // namespace simsub::data
