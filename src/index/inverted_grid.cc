#include "index/inverted_grid.h"

#include <algorithm>

#include "util/logging.h"

namespace simsub::index {

InvertedGridIndex InvertedGridIndex::Build(
    std::span<const geo::Trajectory> trajectories, const geo::Mbr& extent,
    int cols, int rows) {
  SIMSUB_CHECK_GT(cols, 0);
  SIMSUB_CHECK_GT(rows, 0);
  InvertedGridIndex index;
  index.extent_ = extent;
  // An axis without length gets one cell, into which the clamp in CellOf
  // maps every coordinate whatever the cell size.
  index.cols_ = extent.Width() > 0.0 ? cols : 1;
  index.rows_ = extent.Height() > 0.0 ? rows : 1;
  index.cell_w_ = extent.Width() > 0.0 ? extent.Width() / cols : 1.0;
  index.cell_h_ = extent.Height() > 0.0 ? extent.Height() / rows : 1.0;
  index.postings_.resize(static_cast<size_t>(index.cols_) * index.rows_);
  for (size_t ordinal = 0; ordinal < trajectories.size(); ++ordinal) {
    for (int cell : index.CellsOf(trajectories[ordinal].View())) {
      index.postings_[static_cast<size_t>(cell)].push_back(
          static_cast<int64_t>(ordinal));
    }
  }
  // CellsOf de-duplicates per trajectory and ordinals are visited in order,
  // so every postings list is already sorted and duplicate-free.
  return index;
}

int InvertedGridIndex::CellOf(const geo::Point& p) const {
  const int cx = geo::ClampedGridCell(p.x, extent_.min_x, cell_w_, cols_);
  const int cy = geo::ClampedGridCell(p.y, extent_.min_y, cell_h_, rows_);
  return cy * cols_ + cx;
}

std::vector<int> InvertedGridIndex::CellsOf(
    std::span<const geo::Point> pts) const {
  std::vector<int> cells;
  cells.reserve(pts.size());
  for (const geo::Point& p : pts) cells.push_back(CellOf(p));
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

std::vector<int64_t> InvertedGridIndex::QueryCandidates(
    std::span<const geo::Point> query) const {
  std::vector<int64_t> out;
  for (int cell : CellsOf(query)) {
    const std::vector<int64_t>& posting = postings_[static_cast<size_t>(cell)];
    out.insert(out.end(), posting.begin(), posting.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace simsub::index
