#include "t2vec/grid.h"

#include <gtest/gtest.h>

namespace simsub::t2vec {
namespace {

geo::Mbr UnitCity() {
  geo::Mbr m;
  m.Extend(geo::Point(0, 0));
  m.Extend(geo::Point(100, 100));
  return m;
}

TEST(GridTest, VocabSize) {
  Grid g(UnitCity(), 10, 5);
  EXPECT_EQ(g.vocab_size(), 50);
  EXPECT_EQ(g.cols(), 10);
  EXPECT_EQ(g.rows(), 5);
}

TEST(GridTest, TokensWithinRange) {
  Grid g(UnitCity(), 7, 3);
  for (double x : {0.0, 13.0, 57.0, 99.9}) {
    for (double y : {0.0, 42.0, 99.9}) {
      int tok = g.TokenOf(geo::Point(x, y));
      EXPECT_GE(tok, 0);
      EXPECT_LT(tok, g.vocab_size());
    }
  }
}

TEST(GridTest, CornersMapToCornerCells) {
  Grid g(UnitCity(), 10, 10);
  EXPECT_EQ(g.TokenOf(geo::Point(0.5, 0.5)), 0);
  EXPECT_EQ(g.TokenOf(geo::Point(99.5, 0.5)), 9);
  EXPECT_EQ(g.TokenOf(geo::Point(0.5, 99.5)), 90);
  EXPECT_EQ(g.TokenOf(geo::Point(99.5, 99.5)), 99);
}

TEST(GridTest, OutOfExtentClamps) {
  Grid g(UnitCity(), 10, 10);
  EXPECT_EQ(g.TokenOf(geo::Point(-50, -50)), 0);
  EXPECT_EQ(g.TokenOf(geo::Point(500, 500)), 99);
  EXPECT_EQ(g.TokenOf(geo::Point(1e12, 1e12)), 99);
}

TEST(GridTest, CellCenterInverseOfToken) {
  Grid g(UnitCity(), 8, 8);
  for (int tok = 0; tok < g.vocab_size(); ++tok) {
    geo::Point c = g.CellCenter(tok);
    EXPECT_EQ(g.TokenOf(c), tok);
  }
}

TEST(GridTest, NearbyPointsShareToken) {
  Grid g(UnitCity(), 10, 10);  // 10 m cells
  EXPECT_EQ(g.TokenOf(geo::Point(42, 42)), g.TokenOf(geo::Point(43, 44)));
}

TEST(GridTest, TokenizeWholeTrajectory) {
  Grid g(UnitCity(), 10, 10);
  std::vector<geo::Point> pts = {{5, 5}, {15, 5}, {95, 95}};
  auto tokens = g.Tokenize(pts);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], 0);
  EXPECT_EQ(tokens[1], 1);
  EXPECT_EQ(tokens[2], 99);
}

}  // namespace
}  // namespace simsub::t2vec
