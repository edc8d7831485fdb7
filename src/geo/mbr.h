// Minimum bounding rectangles, the building block of the R-tree index and
// of UCR's LB_Keogh envelope adaptation to 2-D trajectories.
#ifndef SIMSUB_GEO_MBR_H_
#define SIMSUB_GEO_MBR_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <span>

#include "geo/point.h"

namespace simsub::geo {

/// Axis-aligned minimum bounding rectangle.
///
/// A default-constructed MBR is empty (inverted bounds); Extend() grows it.
struct Mbr {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  bool IsEmpty() const { return min_x > max_x; }

  void Extend(const Point& p) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }

  void Extend(const Mbr& o) {
    if (o.IsEmpty()) return;
    min_x = std::min(min_x, o.min_x);
    min_y = std::min(min_y, o.min_y);
    max_x = std::max(max_x, o.max_x);
    max_y = std::max(max_y, o.max_y);
  }

  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  bool Intersects(const Mbr& o) const {
    if (IsEmpty() || o.IsEmpty()) return false;
    return min_x <= o.max_x && o.min_x <= max_x && min_y <= o.max_y &&
           o.min_y <= max_y;
  }

  double Width() const { return IsEmpty() ? 0.0 : max_x - min_x; }
  double Height() const { return IsEmpty() ? 0.0 : max_y - min_y; }
  double Area() const { return Width() * Height(); }

  double CenterX() const { return (min_x + max_x) / 2.0; }
  double CenterY() const { return (min_y + max_y) / 2.0; }

  /// Area increase if this MBR were extended to cover `o`.
  double Enlargement(const Mbr& o) const {
    Mbr merged = *this;
    merged.Extend(o);
    return merged.Area() - Area();
  }

  /// Shortest Euclidean distance from p to this rectangle (0 if inside).
  /// Nested std::max instead of the initializer-list overload: this runs
  /// per element inside the LB_Keogh envelope loops, and the
  /// initializer_list temporary blocks autovectorization on GCC.
  double Distance(const Point& p) const {
    double dx = std::max(std::max(min_x - p.x, 0.0), p.x - max_x);
    double dy = std::max(std::max(min_y - p.y, 0.0), p.y - max_y);
    return std::sqrt(dx * dx + dy * dy);
  }

  /// Expands the rectangle by `margin` on all sides.
  Mbr Inflated(double margin) const {
    Mbr out = *this;
    if (out.IsEmpty()) return out;
    out.min_x -= margin;
    out.min_y -= margin;
    out.max_x += margin;
    out.max_y += margin;
    return out;
  }

  bool operator==(const Mbr& o) const {
    return min_x == o.min_x && min_y == o.min_y && max_x == o.max_x &&
           max_y == o.max_y;
  }
};

/// MBR of a point span.
Mbr ComputeMbr(std::span<const Point> pts);

/// Index of the cell `coord` falls in on one axis of a grid of `cells`
/// cells of width `cell_size` starting at `origin`, clamped to
/// [0, cells - 1]. The clamp happens in double, before the conversion: a
/// coordinate far outside the grid has a cell index beyond int's range,
/// which does not convert. NaN goes to cell 0.
inline int ClampedGridCell(double coord, double origin, double cell_size,
                           int cells) {
  const double cell = std::floor((coord - origin) / cell_size);
  if (!(cell > 0.0)) return 0;
  return cell < cells - 1 ? static_cast<int>(cell) : cells - 1;
}

inline std::ostream& operator<<(std::ostream& os, const Mbr& m) {
  return os << "Mbr[" << m.min_x << "," << m.min_y << " .. " << m.max_x << ","
            << m.max_y << "]";
}

}  // namespace simsub::geo

#endif  // SIMSUB_GEO_MBR_H_
