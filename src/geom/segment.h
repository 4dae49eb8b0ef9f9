// Core geometric types. Coordinates are 64-bit integers bounded by
// kMaxCoord so that all predicates evaluate exactly in 128-bit arithmetic —
// no floating point anywhere in the index structures, mirroring how robust
// GIS engines avoid inconsistent branch decisions.
#ifndef SEGDB_GEOM_SEGMENT_H_
#define SEGDB_GEOM_SEGMENT_H_

#include <cstdint>
#include <tuple>

namespace segdb::geom {

// Coordinate bound: |x|, |y| <= kMaxCoord keeps every predicate's
// intermediate products within __int128.
inline constexpr int64_t kMaxCoord = int64_t{1} << 30;

// True when -kMaxCoord <= v <= kMaxCoord: the one coordinate-domain test.
// A range comparison, not std::abs: |INT64_MIN| is not representable.
inline constexpr bool InDomain(int64_t v) {
  return v >= -kMaxCoord && v <= kMaxCoord;
}

struct Point {
  int64_t x = 0;
  int64_t y = 0;

  friend bool operator==(const Point&, const Point&) = default;
  friend auto operator<=>(const Point& a, const Point& b) {
    return std::tie(a.x, a.y) <=> std::tie(b.x, b.y);
  }
};

// A plane segment with an application-assigned id. Canonical form (as
// produced by Make): (x1, y1) lexicographically <= (x2, y2), hence x1 <= x2
// and vertical segments have y1 <= y2. POD — serialized directly into pages.
struct Segment {
  int64_t x1 = 0;
  int64_t y1 = 0;
  int64_t x2 = 0;
  int64_t y2 = 0;
  uint64_t id = 0;

  static Segment Make(Point a, Point b, uint64_t id) {
    if (b < a) std::swap(a, b);
    return Segment{a.x, a.y, b.x, b.y, id};
  }

  Point lo() const { return Point{x1, y1}; }
  Point hi() const { return Point{x2, y2}; }

  bool is_vertical() const { return x1 == x2; }
  bool is_point() const { return x1 == x2 && y1 == y2; }

  int64_t min_y() const { return y1 < y2 ? y1 : y2; }
  int64_t max_y() const { return y1 > y2 ? y1 : y2; }

  friend bool operator==(const Segment&, const Segment&) = default;
};

// Mirrors a segment across the vertical line x = axis (used to reuse the
// canonical right-extending PST for left-extending segment sets).
inline Segment MirrorX(const Segment& s, int64_t axis) {
  return Segment::Make(Point{2 * axis - s.x1, s.y1},
                       Point{2 * axis - s.x2, s.y2}, s.id);
}

// Swaps x and y (rotates the plane so horizontal-base constructions become
// vertical-base ones and vice versa).
inline Segment Transpose(const Segment& s) {
  return Segment::Make(Point{s.y1, s.x1}, Point{s.y2, s.x2}, s.id);
}

}  // namespace segdb::geom

#endif  // SEGDB_GEOM_SEGMENT_H_
