#include "geo/soa.h"

#include "geo/simd_dispatch.h"
#include "util/logging.h"

namespace simsub::geo {

void FlatPoints::Assign(std::span<const Point> pts) {
  x_.resize(pts.size());
  y_.resize(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    x_[i] = pts[i].x;
    y_[i] = pts[i].y;
  }
}

// The public primitives are thin forwarding wrappers: the loop bodies live
// in geo/soa_kernels.inc, compiled once per ISA tier, and ActiveKernels()
// resolves the tier once per process (see geo/simd_dispatch.h).

void DistanceRow(const Point& p, PointsView q, double* out) {
  ActiveKernels().distance_row(p.x, p.y, q.x, q.y, q.size, out);
}

void SquaredDistanceRow(const Point& p, PointsView q, double* out) {
  ActiveKernels().squared_distance_row(p.x, p.y, q.x, q.y, q.size, out);
}

double MinSquaredDistance(const Point& p, PointsView q) {
  SIMSUB_CHECK(!q.empty());
  return ActiveKernels().min_squared_distance(p.x, p.y, q.x, q.y, q.size);
}

double DtwStartRow(const Point& p, PointsView q, double* row) {
  SIMSUB_CHECK(!q.empty());
  return ActiveKernels().dtw_start_row(p.x, p.y, q.x, q.y, q.size, row);
}

double DtwExtendRow(const Point& p, PointsView q, const double* prev,
                    double* out, double* row_min) {
  SIMSUB_CHECK(!q.empty());
  return ActiveKernels().dtw_extend_row(p.x, p.y, q.x, q.y, q.size, prev, out,
                                        row_min);
}

void DtwSuffix(std::span<const Point> p, PointsView q,
               std::vector<double>& work, double* out) {
  SIMSUB_CHECK(!p.empty());
  SIMSUB_CHECK(!q.empty());
  // [x of p][y of p][the kernel's 3 * m + 32 doubles: see SoaKernels].
  const size_t n = p.size();
  work.resize(2 * n + 3 * q.size + 32);
  double* px = work.data();
  double* py = px + n;
  for (size_t k = 0; k < n; ++k) {
    px[k] = p[k].x;
    py[k] = p[k].y;
  }
  ActiveKernels().dtw_suffix(px, py, n, q.x, q.y, q.size, py + n, out);
}

}  // namespace simsub::geo
