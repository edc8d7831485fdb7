#include "index/inverted_grid.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace simsub::index {

InvertedGridIndex InvertedGridIndex::Build(
    std::span<const geo::Trajectory> trajectories, const geo::Mbr& extent,
    int cols, int rows) {
  SIMSUB_CHECK(!extent.IsEmpty());
  SIMSUB_CHECK_GT(cols, 0);
  SIMSUB_CHECK_GT(rows, 0);
  InvertedGridIndex index;
  index.extent_ = extent;
  index.cols_ = cols;
  index.rows_ = rows;
  index.cell_w_ = extent.Width() / cols;
  index.cell_h_ = extent.Height() / rows;
  SIMSUB_CHECK_GT(index.cell_w_, 0.0);
  SIMSUB_CHECK_GT(index.cell_h_, 0.0);
  index.indexed_count_ = trajectories.size();
  index.postings_.resize(static_cast<size_t>(cols) * rows);
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
    std::span<const geo::Point> query, int min_shared_cells) const {
  SIMSUB_CHECK_GE(min_shared_cells, 1);
  std::unordered_map<int64_t, int> shared;
  for (int cell : CellsOf(query)) {
    for (int64_t ordinal : postings_[static_cast<size_t>(cell)]) {
      ++shared[ordinal];
    }
  }
  std::vector<int64_t> out;
  out.reserve(shared.size());
  for (const auto& [ordinal, count] : shared) {
    if (count >= min_shared_cells) out.push_back(ordinal);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace simsub::index
