// Format-level tests for the binary columnar snapshot (data/snapshot.h):
// exact round-trips, and rejection of every corruption class the format is
// designed to catch (truncation, trailing garbage, bit flips, bad magic,
// unknown versions, foreign endianness).
#include "data/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "data/generator.h"
#include "geo/mbr.h"

namespace simsub::data {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good());
  std::vector<char> bytes(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

/// RAII temp file cleanup.
struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

/// Serializes `dataset` and returns the snapshot bytes — the corruption
/// tests below mutate these in memory and feed them to OpenFromBuffer, so
/// each corruption class is one buffer edit instead of a file rewrite.
std::vector<uint8_t> SnapshotBytes(const Dataset& dataset) {
  TempFile file(TempPath("simsub_snapshot_bytes.snap"));
  EXPECT_TRUE(WriteSnapshot(dataset, file.path).ok());
  std::vector<char> raw = ReadAll(file.path);
  return std::vector<uint8_t>(raw.begin(), raw.end());
}

TEST(SnapshotTest, RoundTripIsBitExact) {
  for (DatasetKind kind : {DatasetKind::kPorto, DatasetKind::kSports}) {
    Dataset original = GenerateDataset(kind, 12, 1234);
    TempFile file(TempPath("simsub_snapshot_roundtrip.snap"));
    ASSERT_TRUE(WriteSnapshot(original, file.path).ok());

    auto opened = CorpusSnapshot::Open(file.path);
    ASSERT_TRUE(opened.ok()) << opened.status();
    const CorpusSnapshot& snap = **opened;

    ASSERT_EQ(snap.trajectory_count(), original.trajectories.size());
    EXPECT_EQ(snap.total_points(), original.TotalPoints());
    for (size_t i = 0; i < snap.trajectory_count(); ++i) {
      const geo::Trajectory& t = original.trajectories[i];
      EXPECT_EQ(snap.ids()[i], t.id());
      // Persisted MBRs are exactly the freshly computed ones.
      EXPECT_EQ(snap.mbrs()[i], geo::ComputeMbr(t.View()));
      // Zero-copy SoA columns carry the exact coordinate bits.
      geo::PointsView soa = snap.Soa(i);
      ASSERT_EQ(static_cast<int>(soa.size), t.size());
      for (int j = 0; j < t.size(); ++j) {
        EXPECT_EQ(soa.x[static_cast<size_t>(j)], t[j].x);
        EXPECT_EQ(soa.y[static_cast<size_t>(j)], t[j].y);
      }
      // Full AoS materialization restores points (incl. timestamps) and id.
      geo::Trajectory back = snap.MaterializeTrajectory(i);
      ASSERT_EQ(back.size(), t.size());
      EXPECT_EQ(back.id(), t.id());
      for (int j = 0; j < t.size(); ++j) EXPECT_EQ(back[j], t[j]);
    }

    // Persisted stats are bit-identical to a fresh statistics pass.
    std::vector<geo::Mbr> mbrs;
    for (const auto& t : original.trajectories) {
      mbrs.push_back(geo::ComputeMbr(t.View()));
    }
    geo::CorpusStats fresh = geo::ComputeCorpusStats(mbrs);
    EXPECT_EQ(snap.stats().extent, fresh.extent);
    EXPECT_EQ(snap.stats().mean_trajectory_width,
              fresh.mean_trajectory_width);
    EXPECT_EQ(snap.stats().mean_trajectory_height,
              fresh.mean_trajectory_height);
  }
}

TEST(SnapshotTest, RoundTripKeepsEmptyTrajectoriesAndEmptyCorpora) {
  Dataset dataset;
  dataset.trajectories.emplace_back(std::vector<geo::Point>{}, 7);
  dataset.trajectories.emplace_back(
      std::vector<geo::Point>{{1, 2, 3}, {4, 5, 6}}, 9);
  TempFile file(TempPath("simsub_snapshot_empty.snap"));
  ASSERT_TRUE(WriteSnapshot(dataset, file.path).ok());
  auto opened = CorpusSnapshot::Open(file.path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ASSERT_EQ((*opened)->trajectory_count(), 2u);
  EXPECT_EQ((*opened)->Soa(0).size, 0u);
  EXPECT_EQ((*opened)->Soa(1).size, 2u);
  EXPECT_EQ((*opened)->MaterializeTrajectory(0).id(), 7);

  Dataset empty;
  ASSERT_TRUE(WriteSnapshot(empty, file.path).ok());
  auto reopened = CorpusSnapshot::Open(file.path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->trajectory_count(), 0u);
  EXPECT_EQ((*reopened)->total_points(), 0);
}

TEST(SnapshotTest, StoreOutlivesSnapshotHandle) {
  Dataset dataset = GenerateDataset(DatasetKind::kPorto, 4, 5);
  TempFile file(TempPath("simsub_snapshot_lifetime.snap"));
  ASSERT_TRUE(WriteSnapshot(dataset, file.path).ok());
  std::shared_ptr<const geo::PointsStore> store;
  double expect_x;
  {
    auto opened = CorpusSnapshot::Open(file.path);
    ASSERT_TRUE(opened.ok());
    store = (*opened)->store();
    expect_x = (*opened)->Soa(0).x[0];
  }  // snapshot handle destroyed; the store must keep the mapping alive
  EXPECT_EQ(store->TrajectoryView(0).x[0], expect_x);
}

TEST(SnapshotTest, MissingFileFails) {
  auto opened = CorpusSnapshot::Open("/no/such/snapshot.snap");
  EXPECT_FALSE(opened.ok());
}

TEST(SnapshotTest, EmptyFileIsRejectedAsTruncated) {
  TempFile file(TempPath("simsub_snapshot_zero_bytes.snap"));
  std::ofstream(file.path, std::ios::binary | std::ios::trunc).close();
  ASSERT_EQ(std::filesystem::file_size(file.path), 0u);
  auto opened = CorpusSnapshot::Open(file.path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("truncated snapshot (empty file)"),
            std::string::npos)
      << opened.status();
}

TEST(SnapshotTest, OpenFromBufferMatchesFileOpen) {
  Dataset dataset = GenerateDataset(DatasetKind::kPorto, 5, 88);
  TempFile file(TempPath("simsub_snapshot_frombuf.snap"));
  ASSERT_TRUE(WriteSnapshot(dataset, file.path).ok());
  std::vector<char> raw = ReadAll(file.path);
  std::vector<uint8_t> bytes(raw.begin(), raw.end());

  auto mapped = CorpusSnapshot::Open(file.path);
  auto buffered = CorpusSnapshot::OpenFromBuffer(bytes);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(buffered.ok()) << buffered.status();
  ASSERT_EQ((*mapped)->trajectory_count(), (*buffered)->trajectory_count());
  EXPECT_EQ((*mapped)->total_points(), (*buffered)->total_points());
  for (size_t i = 0; i < (*mapped)->trajectory_count(); ++i) {
    geo::Trajectory a = (*mapped)->MaterializeTrajectory(i);
    geo::Trajectory b = (*buffered)->MaterializeTrajectory(i);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.id(), b.id());
    for (int j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
  }
}

TEST(SnapshotTest, OpenFromBufferDoesNotBorrowTheCallersBytes) {
  Dataset dataset = GenerateDataset(DatasetKind::kPorto, 4, 89);
  std::vector<uint8_t> bytes = SnapshotBytes(dataset);
  auto opened = CorpusSnapshot::OpenFromBuffer(bytes);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const double expect_x = (*opened)->Soa(0).x[0];
  // The documented contract: the span may be clobbered (or freed) as soon
  // as OpenFromBuffer returns.
  std::fill(bytes.begin(), bytes.end(), uint8_t{0xAA});
  bytes.clear();
  bytes.shrink_to_fit();
  EXPECT_EQ((*opened)->Soa(0).x[0], expect_x);
}

TEST(SnapshotTest, TruncationIsRejectedAtEveryCut) {
  std::vector<uint8_t> bytes =
      SnapshotBytes(GenerateDataset(DatasetKind::kPorto, 6, 42));
  ASSERT_GT(bytes.size(), 200u);

  for (size_t keep : {size_t{0}, size_t{17}, size_t{95}, size_t{96},
                      bytes.size() / 2, bytes.size() - 1}) {
    auto opened = CorpusSnapshot::OpenFromBuffer(
        std::span<const uint8_t>(bytes.data(), keep));
    ASSERT_FALSE(opened.ok()) << "accepted a " << keep << "-byte prefix";
    EXPECT_NE(opened.status().message().find("truncated"), std::string::npos)
        << opened.status();
  }

  // Trailing garbage is a size mismatch too, not silently ignored.
  std::vector<uint8_t> padded = bytes;
  padded.insert(padded.end(), 8, uint8_t{0});
  EXPECT_FALSE(CorpusSnapshot::OpenFromBuffer(padded).ok());
}

TEST(SnapshotTest, PayloadBitFlipFailsChecksum) {
  std::vector<uint8_t> bytes =
      SnapshotBytes(GenerateDataset(DatasetKind::kPorto, 6, 43));
  bytes[bytes.size() - 3] ^= 0x20;  // flip one bit deep in the t column

  auto opened = CorpusSnapshot::OpenFromBuffer(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("checksum"), std::string::npos)
      << opened.status();

  // Verification is what catches it: an explicit opt-out accepts the
  // corrupt payload without complaint (the documented trust-the-file fast
  // path).
  SnapshotOpenOptions trusting;
  trusting.verify_checksum = false;
  EXPECT_TRUE(CorpusSnapshot::OpenFromBuffer(bytes, trusting).ok());
}

TEST(SnapshotTest, BadMagicRejected) {
  std::vector<uint8_t> bytes =
      SnapshotBytes(GenerateDataset(DatasetKind::kPorto, 3, 44));
  bytes[0] = 'X';
  auto opened = CorpusSnapshot::OpenFromBuffer(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("magic"), std::string::npos);
}

TEST(SnapshotTest, UnsupportedVersionRejected) {
  std::vector<uint8_t> bytes =
      SnapshotBytes(GenerateDataset(DatasetKind::kPorto, 3, 45));
  uint64_t future_version = 999;
  std::memcpy(bytes.data() + 8, &future_version, 8);
  auto opened = CorpusSnapshot::OpenFromBuffer(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("version 999"), std::string::npos)
      << opened.status();
}

TEST(SnapshotTest, ForeignEndiannessRejected) {
  std::vector<uint8_t> bytes =
      SnapshotBytes(GenerateDataset(DatasetKind::kPorto, 3, 46));
  // Byte-reverse the endianness marker in place, simulating a snapshot
  // written by a byte-swapped writer.
  for (int i = 0; i < 4; ++i) std::swap(bytes[16 + i], bytes[16 + 7 - i]);
  auto opened = CorpusSnapshot::OpenFromBuffer(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("endian"), std::string::npos)
      << opened.status();
}

TEST(SnapshotTest, CorruptOffsetsRejected) {
  // Two one-point trajectories: the offsets section sits at a known
  // position (header + 2 * 8 id bytes) and holds {0, 1, 2}.
  Dataset dataset;
  dataset.trajectories.emplace_back(std::vector<geo::Point>{{1, 1, 0}}, 1);
  dataset.trajectories.emplace_back(std::vector<geo::Point>{{2, 2, 0}}, 2);
  std::vector<uint8_t> bytes = SnapshotBytes(dataset);
  const size_t offsets_pos = 96 + 2 * 8;
  uint64_t bad = 5;  // > total_points
  std::memcpy(bytes.data() + offsets_pos + 8, &bad, 8);
  SnapshotOpenOptions trusting;  // skip the checksum to reach the validator
  trusting.verify_checksum = false;
  auto opened = CorpusSnapshot::OpenFromBuffer(bytes, trusting);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("offsets"), std::string::npos)
      << opened.status();
}

}  // namespace
}  // namespace simsub::data
