// Structure-of-arrays point storage and the vectorized distance-row
// primitives behind the similarity kernels.
//
// The DP evaluators in src/similarity spend nearly all of their time
// computing d(p, q_j) for one data point p against every query point q_j.
// Over the AoS `Point` layout (x, y, t interleaved) that loop strides by
// 24 bytes and calls an errno-setting sqrt one element at a time; over the
// FlatPoints layout (contiguous x[] and y[] arrays) the same loop is a
// unit-stride sweep the compiler autovectorizes (the build enables
// -fno-math-errno precisely so sqrt can be emitted as a vector
// instruction).
//
// Three usage patterns, picked per kernel by what bench_kernels measures:
//  * throughput-bound passes with no loop-carried dependency — Hausdorff's
//    per-point row, ERP's per-query gap row, the engine's nearest-endpoint
//    lower bound — call the row primitives below and vectorize fully;
//  * latency-bound DP sweeps (DTW/ERP/EDR/LCSS/CDTW/Frechet recurrences,
//    serialized on scratch[j-1]) read the FlatPoints arrays directly with
//    the distance computed inline: the sqrt sits off the carried min/max
//    path and hides under it, while a separate row-fill pass would add
//    un-hideable loads and stores. The DTW start row is the exception: its
//    carried chain is one add, shorter than a scalar sqrt, so it fills its
//    distances in DistanceRow's vector loop first and sums them after;
//  * whole-matrix passes, which read no row before the last (the DTW
//    suffix pass of PSS and the RL state), run as staggered rows: SIMD
//    lane l holds row r0 + l one column behind lane l - 1, so the rows'
//    chains run side by side and the sqrt runs vector-wide. A sweep that
//    reads each row as it goes (an early-abandoning scan, a prefix whose
//    next point depends on the last distance) stays on the row kernels.
//
// All row primitives are elementwise-identical to their scalar AoS
// counterparts: out[j] is computed with exactly the arithmetic
// geo::Distance / geo::SquaredDistance performs, so rewritten kernels stay
// bit-identical to the scalar reference implementations.
#ifndef SIMSUB_GEO_SOA_H_
#define SIMSUB_GEO_SOA_H_

#include <cstddef>
#include <span>
#include <vector>

#include "geo/point.h"

namespace simsub::geo {

/// Non-owning view of contiguous x[] / y[] coordinate arrays.
struct PointsView {
  const double* x = nullptr;
  const double* y = nullptr;
  size_t size = 0;

  bool empty() const { return size == 0; }

  /// View of elements [offset, offset + count).
  PointsView Slice(size_t offset, size_t count) const {
    return PointsView{x + offset, y + offset, count};
  }
};

/// Owning SoA copy of a point sequence (timestamps are dropped: the
/// similarity kernels are purely spatial). Built once per trajectory or
/// query and reused across every kernel invocation against it.
class FlatPoints {
 public:
  FlatPoints() = default;
  explicit FlatPoints(std::span<const Point> pts) { Assign(pts); }

  /// Replaces the contents with a fresh SoA copy of `pts`.
  void Assign(std::span<const Point> pts);

  void Clear() {
    x_.clear();
    y_.clear();
  }

  size_t size() const { return x_.size(); }
  bool empty() const { return x_.empty(); }

  PointsView View() const { return PointsView{x_.data(), y_.data(), x_.size()}; }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
};

// The row and DP-row primitives below dispatch through the runtime ISA
// tier selected by geo/simd_dispatch.h (baseline / AVX2 / AVX-512 function
// pointers, SIMSUB_ISA override): a generic Release build runs the widest
// kernel codegen the machine supports without -march=native. All tiers are
// bit-identical (see the simd_dispatch.h contract).

/// out[j] = Euclidean distance from p to (q.x[j], q.y[j]) for all j.
/// Identical arithmetic to geo::Distance(p, q_j) per element.
void DistanceRow(const Point& p, PointsView q, double* out);

/// out[j] = squared Euclidean distance from p to (q.x[j], q.y[j]). The
/// squared variant for measures whose recurrences only compare distances
/// (min/max are monotone under sqrt), which skips the sqrt entirely.
void SquaredDistanceRow(const Point& p, PointsView q, double* out);

/// Minimum over j of SquaredDistance(p, q_j). Vectorized min-reduction used
/// by the engine's nearest-endpoint lower bound. Requires !q.empty().
double MinSquaredDistance(const Point& p, PointsView q);

/// DTW DP rows (the latency-bound sweeps of similarity/dtw.cc, hoisted here
/// so they compile once per ISA tier instead of once with generic flags).
/// DtwStartRow fills row[j] = sum_{k<=j} d(p, q_k) and returns row[m-1];
/// the row minimum is row[0] (prefix sums are non-decreasing).
/// Requires !q.empty().
double DtwStartRow(const Point& p, PointsView q, double* row);

/// DtwExtendRow fills out[j] = d(p, q_j) + min(prev[j-1], prev[j],
/// out[j-1]) (with the j == 0 edge case prev[0] + d), writes the row
/// minimum — the evaluator's non-decreasing early-abandoning lower bound —
/// to *row_min, and returns out[m-1]. `prev` and `out` must not alias.
/// Requires !q.empty().
double DtwExtendRow(const Point& p, PointsView q, const double* prev,
                    double* out, double* row_min);

/// The DTW suffix pass: out[k] is what DtwStartRow(p[n-1]) and then
/// DtwExtendRow(p[n-2]), ..., DtwExtendRow(p[k]) return, bit for bit, for
/// every k < n = p.size(), computed several staggered rows per SIMD vector.
/// `work` is resized to the pass's scratch (its capacity kept, so a reused
/// buffer stops allocating). Requires !p.empty() and !q.empty().
void DtwSuffix(std::span<const Point> p, PointsView q,
               std::vector<double>& work, double* out);

/// Scalar AoS reference implementations (kept for the kernel-equivalence
/// tests and as the bench baseline; they mirror the pre-SoA evaluator code
/// exactly: one geo::Distance call per element over the interleaved layout).
void DistanceRowScalar(const Point& p, std::span<const Point> q, double* out);
void SquaredDistanceRowScalar(const Point& p, std::span<const Point> q,
                              double* out);

}  // namespace simsub::geo

#endif  // SIMSUB_GEO_SOA_H_
