#include "t2vec/grid.h"

#include "util/logging.h"

namespace simsub::t2vec {

Grid::Grid(const geo::Mbr& extent, int cols, int rows)
    : extent_(extent), cols_(cols), rows_(rows) {
  SIMSUB_CHECK(!extent.IsEmpty());
  SIMSUB_CHECK_GT(cols, 0);
  SIMSUB_CHECK_GT(rows, 0);
  cell_w_ = extent.Width() / cols;
  cell_h_ = extent.Height() / rows;
  SIMSUB_CHECK_GT(cell_w_, 0.0);
  SIMSUB_CHECK_GT(cell_h_, 0.0);
}

int Grid::TokenOf(const geo::Point& p) const {
  const int cx = geo::ClampedGridCell(p.x, extent_.min_x, cell_w_, cols_);
  const int cy = geo::ClampedGridCell(p.y, extent_.min_y, cell_h_, rows_);
  return cy * cols_ + cx;
}

geo::Point Grid::CellCenter(int token) const {
  SIMSUB_CHECK_GE(token, 0);
  SIMSUB_CHECK_LT(token, vocab_size());
  int cy = token / cols_;
  int cx = token % cols_;
  return geo::Point(extent_.min_x + (cx + 0.5) * cell_w_,
                    extent_.min_y + (cy + 0.5) * cell_h_);
}

std::vector<int> Grid::Tokenize(std::span<const geo::Point> pts) const {
  std::vector<int> tokens;
  tokens.reserve(pts.size());
  for (const geo::Point& p : pts) tokens.push_back(TokenOf(p));
  return tokens;
}

}  // namespace simsub::t2vec
