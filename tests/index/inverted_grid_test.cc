#include "index/inverted_grid.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/generator.h"

namespace simsub::index {
namespace {

geo::Mbr Extent(double half) {
  geo::Mbr m;
  m.Extend(geo::Point(-half, -half));
  m.Extend(geo::Point(half, half));
  return m;
}

geo::Trajectory Segment(double x0, double y0, double x1, double y1, int n,
                        int64_t id) {
  std::vector<geo::Point> pts;
  for (int i = 0; i < n; ++i) {
    double f = n == 1 ? 0.0 : static_cast<double>(i) / (n - 1);
    pts.emplace_back(x0 + f * (x1 - x0), y0 + f * (y1 - y0), i);
  }
  return geo::Trajectory(std::move(pts), id);
}

TEST(InvertedGridTest, FindsCoLocatedTrajectories) {
  std::vector<geo::Trajectory> db;
  db.push_back(Segment(-90, -90, -80, -80, 10, 0));  // far corner
  db.push_back(Segment(0, 0, 10, 10, 10, 1));        // center
  db.push_back(Segment(5, 5, 15, 15, 10, 2));        // overlaps center
  auto index = InvertedGridIndex::Build(db, Extent(100), 20, 20);
  geo::Trajectory query = Segment(2, 2, 8, 8, 5, 99);
  auto candidates = index.QueryCandidates(query.View());
  EXPECT_EQ(candidates, (std::vector<int64_t>{1, 2}));
}

TEST(InvertedGridTest, MatchesBruteForceOnSyntheticCity) {
  data::Dataset city = data::GenerateDataset(data::DatasetKind::kPorto, 80, 5);
  geo::Mbr extent = city.Extent();
  auto index = InvertedGridIndex::Build(city.trajectories, extent, 32, 32);
  for (int q = 0; q < 10; ++q) {
    const geo::Trajectory& query = city.trajectories[static_cast<size_t>(q)];
    auto hits = index.QueryCandidates(query.View());
    // Brute force: trajectories sharing at least one cell.
    auto qcells = index.CellsOf(query.View());
    std::vector<int64_t> expected;
    for (size_t i = 0; i < city.trajectories.size(); ++i) {
      auto tcells = index.CellsOf(city.trajectories[i].View());
      std::vector<int> shared;
      std::set_intersection(qcells.begin(), qcells.end(), tcells.begin(),
                            tcells.end(), std::back_inserter(shared));
      if (!shared.empty()) expected.push_back(static_cast<int64_t>(i));
    }
    EXPECT_EQ(hits, expected) << "query " << q;
  }
}

TEST(InvertedGridTest, SelfIsAlwaysCandidate) {
  data::Dataset city = data::GenerateDataset(data::DatasetKind::kPorto, 30, 6);
  auto index =
      InvertedGridIndex::Build(city.trajectories, city.Extent(), 16, 16);
  for (size_t i = 0; i < city.trajectories.size(); ++i) {
    auto hits = index.QueryCandidates(city.trajectories[i].View());
    EXPECT_TRUE(std::binary_search(hits.begin(), hits.end(),
                                   static_cast<int64_t>(i)));
  }
}

TEST(InvertedGridTest, FarQueryPointsClampToTheBorderCellOnTheirSide) {
  // One trajectory in each corner cell of a 4x4 grid over [-100, 100]^2,
  // numbered bottom-left, bottom-right, top-left, top-right.
  std::vector<geo::Trajectory> db;
  db.push_back(Segment(-90, -90, -80, -80, 5, 0));
  db.push_back(Segment(80, -90, 90, -80, 5, 1));
  db.push_back(Segment(-90, 80, -80, 90, 5, 2));
  db.push_back(Segment(80, 80, 90, 90, 5, 3));
  auto index = InvertedGridIndex::Build(db, Extent(100), 4, 4);
  for (double far : {200.0, 1e9, 1e12, 1e300}) {
    for (double sx : {-1.0, 1.0}) {
      for (double sy : {-1.0, 1.0}) {
        std::vector<geo::Point> query = {{sx * far, sy * far}};
        const int64_t corner = (sy > 0 ? 2 : 0) + (sx > 0 ? 1 : 0);
        EXPECT_EQ(index.QueryCandidates(query), std::vector<int64_t>{corner})
            << "query at (" << sx * far << ", " << sy * far << ")";
      }
    }
  }
}

TEST(InvertedGridTest, CellsOfDeduplicates) {
  auto index = InvertedGridIndex::Build({}, Extent(10), 4, 4);
  std::vector<geo::Point> pts = {{1, 1}, {1.1, 1.1}, {-9, -9}};
  auto cells = index.CellsOf(pts);
  EXPECT_EQ(cells.size(), 2u);
  EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end()));
}

}  // namespace
}  // namespace simsub::index
