// Inverted-file pruning index over grid cells — the second of the two
// pruning structures the paper's Section 3.1 mentions ("the R-tree based
// index and the inverted-file based index for pruning").
//
// Each trajectory posts into the list of every grid cell it touches; a
// query retrieves the trajectories sharing at least one cell with it.
// Unlike the MBR filter, this prunes trajectories whose bounding boxes
// overlap the query's but whose actual paths never come near it. The
// engine builds its grid on the first query that asks for this filter.
#ifndef SIMSUB_INDEX_INVERTED_GRID_H_
#define SIMSUB_INDEX_INVERTED_GRID_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geo/mbr.h"
#include "geo/trajectory.h"

namespace simsub::index {

/// Static inverted index: cell id -> sorted list of trajectory ordinals.
class InvertedGridIndex {
 public:
  /// Builds over `trajectories` with a cols x rows grid covering `extent`
  /// (points outside clamp to border cells). An axis the extent has no
  /// length on (one point, or every point on one line) gets one cell.
  static InvertedGridIndex Build(
      std::span<const geo::Trajectory> trajectories, const geo::Mbr& extent,
      int cols, int rows);

  /// Cell id of a point (clamped).
  int CellOf(const geo::Point& p) const;

  /// Distinct cells touched by a point sequence.
  std::vector<int> CellsOf(std::span<const geo::Point> pts) const;

  /// Ordinals (positions in the build span) of trajectories sharing a
  /// cell with the query: the sorted union of the query cells' postings.
  std::vector<int64_t> QueryCandidates(std::span<const geo::Point> query) const;

 private:
  InvertedGridIndex() = default;

  geo::Mbr extent_;
  int cols_ = 0;
  int rows_ = 0;
  double cell_w_ = 0.0;
  double cell_h_ = 0.0;
  // postings_[cell] = sorted trajectory ordinals that touch the cell.
  std::vector<std::vector<int64_t>> postings_;
};

}  // namespace simsub::index

#endif  // SIMSUB_INDEX_INVERTED_GRID_H_
