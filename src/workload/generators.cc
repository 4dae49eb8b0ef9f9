#include "workload/generators.h"

#include <algorithm>

#include "geom/predicates.h"
#include "util/check.h"

namespace segdb::workload {

namespace {

using geom::Point;
using geom::Segment;

}  // namespace

std::vector<Segment> GenLineBasedSorted(Rng& rng, uint64_t n, int64_t base_x,
                                        int64_t max_reach, uint64_t first_id) {
  // Base ordinates ascend with gaps; slopes ascend with the ordinate, so
  // the supporting lines (hence the segments) never cross right of the
  // base line.
  std::vector<Segment> out;
  out.reserve(n);
  int64_t y = -static_cast<int64_t>(n) * 2;
  for (uint64_t i = 0; i < n; ++i) {
    y += 1 + rng.UniformInt(0, 3);
    // Slopes step through [-32, 32] as the base ordinate grows, so slope
    // differences never invert the base order (ties = parallel groups).
    const int64_t slope = static_cast<int64_t>(i * 64 / n) - 32;
    const int64_t reach = 1 + rng.UniformInt(0, max_reach - 1);
    out.push_back(Segment::Make(Point{base_x, y},
                                Point{base_x + reach, y + slope * reach},
                                first_id + i));
  }
  return out;
}

std::vector<Segment> GenLineBasedFan(Rng& rng, uint64_t n, int64_t base_x,
                                     int64_t max_reach, uint64_t bundle,
                                     uint64_t first_id) {
  // Within a bundle: one shared base point, strictly increasing slopes —
  // the segments touch at the base and never meet again. Across bundles:
  // the base ordinate and the slope range both ratchet upward, so a
  // lower bundle can never out-climb a higher one (the same ordering
  // argument as GenLineBasedSorted). Slope magnitude grows to O(n);
  // callers must keep n * max_reach within the coordinate bound.
  std::vector<Segment> out;
  out.reserve(n);
  int64_t y = 0;
  int64_t slope = 0;
  uint64_t made = 0;
  while (made < n) {
    y += 64 + rng.UniformInt(0, 64);
    const uint64_t k = std::min<uint64_t>(bundle, n - made);
    for (uint64_t j = 0; j < k; ++j) {
      if (j > 0) ++slope;  // distinct within the bundle, non-decreasing over all
      const int64_t reach = 1 + rng.UniformInt(0, max_reach - 1);
      out.push_back(Segment::Make(Point{base_x, y},
                                  Point{base_x + reach, y + slope * reach},
                                  first_id + made));
      ++made;
    }
  }
  return out;
}

std::vector<Segment> GenLineBasedRepaired(Rng& rng, uint64_t n, int64_t base_x,
                                          int64_t max_reach,
                                          uint64_t first_id) {
  // Random integer slopes and base ordinates, then truncate segments until
  // no pair properly crosses. Truncating an endpoint along an integer
  // slope keeps coordinates integral and only shrinks segments, so the
  // repair terminates with an NCT set.
  struct Ray {
    int64_t y0;
    int64_t slope;
    int64_t reach;
  };
  // Base ordinates ascend with gaps of at least 13 while slopes differ by
  // at most 12, so any proper crossing lies at abscissa > 1 from the base
  // line and can always be removed by integer truncation.
  std::vector<Ray> rays(n);
  int64_t y = 0;
  for (uint64_t i = 0; i < n; ++i) {
    y += 13 + rng.UniformInt(0, 8);
    rays[i].y0 = y;
    rays[i].slope = rng.UniformInt(-6, 6);
    rays[i].reach = 1 + rng.UniformInt(0, max_reach - 1);
  }
  auto make = [&](const Ray& r, uint64_t id) {
    return Segment::Make(
        Point{base_x, r.y0},
        Point{base_x + r.reach, r.y0 + r.slope * r.reach}, id);
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint64_t i = 0; i < n; ++i) {
      for (uint64_t j = i + 1; j < n; ++j) {
        Segment a = make(rays[i], i);
        Segment b = make(rays[j], j);
        if (!geom::SegmentsProperlyCross(a, b)) continue;
        // Crossing abscissa (relative to base): (y0j - y0i)/(si - sj).
        // y0 ascends with j, so dy > 0, and a proper crossing to the right
        // of the base needs ds > 0; by construction dy/ds >= 13/12 > 1.
        const int64_t dy = rays[j].y0 - rays[i].y0;
        const int64_t ds = rays[i].slope - rays[j].slope;
        SEGDB_DCHECK(dy > 0 && ds > 0);
        const int64_t xc = dy / ds;  // floor(crossing) >= 1
        // Truncate the longer ray to at most the crossing point: an
        // endpoint exactly on the other segment is touching, which NCT
        // permits. Strictly shrinks the victim, so the repair terminates.
        Ray& victim = rays[i].reach >= rays[j].reach ? rays[i] : rays[j];
        victim.reach = std::min(victim.reach, xc);
        changed = true;
      }
    }
  }
  std::vector<Segment> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) out.push_back(make(rays[i], first_id + i));
  return out;
}

std::vector<Segment> GenHorizontalStrips(Rng& rng, uint64_t n, int64_t width,
                                         uint64_t first_id) {
  std::vector<Segment> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const int64_t y = static_cast<int64_t>(i) * 4 + rng.UniformInt(0, 2);
    const int64_t x = rng.UniformInt(0, width - 1);
    const int64_t len = 1 + rng.UniformInt(0, width - x - 1);
    out.push_back(
        Segment::Make(Point{x, y}, Point{x + len, y}, first_id + i));
  }
  return out;
}

std::vector<Segment> GenMonotoneChains(Rng& rng, uint64_t chains,
                                       uint64_t points_per_chain,
                                       int64_t width, uint64_t first_id) {
  SEGDB_DCHECK(points_per_chain >= 2);
  // Shared strictly-increasing x grid.
  std::vector<int64_t> xs(points_per_chain);
  const int64_t step = std::max<int64_t>(2, width / points_per_chain);
  int64_t x = 0;
  for (auto& v : xs) {
    v = x;
    x += 1 + rng.UniformInt(0, step);
  }
  const int64_t gap = 1024;
  std::vector<Segment> out;
  out.reserve(chains * (points_per_chain - 1));
  uint64_t id = first_id;
  for (uint64_t c = 0; c < chains; ++c) {
    const int64_t base = static_cast<int64_t>(c) * gap;
    int64_t prev_y = base + rng.UniformInt(-gap / 4, gap / 4);
    for (uint64_t p = 1; p < points_per_chain; ++p) {
      const int64_t y = base + rng.UniformInt(-gap / 4, gap / 4);
      out.push_back(Segment::Make(Point{xs[p - 1], prev_y},
                                  Point{xs[p], y}, id++));
      prev_y = y;
    }
  }
  return out;
}

std::vector<Segment> GenGridPerturbed(Rng& rng, uint64_t cells_x,
                                      uint64_t cells_y, int64_t cell_size,
                                      double diagonal_prob,
                                      uint64_t first_id) {
  SEGDB_DCHECK(cell_size >= 8);
  const int64_t jitter = cell_size / 8;
  const uint64_t vx = cells_x + 1;
  const uint64_t vy = cells_y + 1;
  std::vector<Point> verts(vx * vy);
  for (uint64_t j = 0; j < vy; ++j) {
    for (uint64_t i = 0; i < vx; ++i) {
      verts[j * vx + i] =
          Point{static_cast<int64_t>(i) * cell_size +
                    rng.UniformInt(-jitter, jitter),
                static_cast<int64_t>(j) * cell_size +
                    rng.UniformInt(-jitter, jitter)};
    }
  }
  auto at = [&](uint64_t i, uint64_t j) { return verts[j * vx + i]; };
  std::vector<Segment> out;
  uint64_t id = first_id;
  for (uint64_t j = 0; j < vy; ++j) {
    for (uint64_t i = 0; i < vx; ++i) {
      if (i + 1 < vx) {
        out.push_back(Segment::Make(at(i, j), at(i + 1, j), id++));
      }
      if (j + 1 < vy) {
        out.push_back(Segment::Make(at(i, j), at(i, j + 1), id++));
      }
      if (i + 1 < vx && j + 1 < vy && rng.Bernoulli(diagonal_prob)) {
        if (rng.Bernoulli(0.5)) {
          out.push_back(Segment::Make(at(i, j), at(i + 1, j + 1), id++));
        } else {
          out.push_back(Segment::Make(at(i + 1, j), at(i, j + 1), id++));
        }
      }
    }
  }
  return out;
}

std::vector<Segment> GenNestedSpans(Rng& rng, uint64_t n,
                                    int64_t max_half_width,
                                    uint64_t first_id) {
  std::vector<Segment> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const int64_t y = static_cast<int64_t>(i) * 2;
    const int64_t half = 1 + rng.UniformInt(0, max_half_width - 1);
    const int64_t center = rng.UniformInt(-max_half_width / 4,
                                          max_half_width / 4);
    out.push_back(Segment::Make(Point{center - half, y},
                                Point{center + half, y}, first_id + i));
  }
  return out;
}

std::vector<Segment> GenCollinearVertical(Rng& rng, uint64_t n, int64_t x0,
                                          int64_t height, uint64_t first_id) {
  std::vector<Segment> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const int64_t lo = rng.UniformInt(0, height - 2);
    const int64_t hi = lo + 1 + rng.UniformInt(0, height - lo - 2);
    out.push_back(Segment::Make(Point{x0, lo}, Point{x0, hi}, first_id + i));
  }
  return out;
}

std::vector<Segment> GenMapLayer(Rng& rng, uint64_t n, int64_t width,
                                 uint64_t first_id) {
  // ~70% chain segments, ~20% strips, ~10% long spans, vertically stacked
  // in disjoint bands so the families cannot cross each other.
  const uint64_t chain_target = n * 7 / 10;
  const uint64_t strip_target = n * 2 / 10;
  const uint64_t points = 64;
  const uint64_t chains = std::max<uint64_t>(1, chain_target / (points - 1));
  std::vector<Segment> out =
      GenMonotoneChains(rng, chains, points, width, first_id);
  const int64_t chains_top = static_cast<int64_t>(chains) * 1024 + 1024;

  uint64_t id = first_id + out.size();
  std::vector<Segment> strips =
      GenHorizontalStrips(rng, strip_target, width, id);
  for (Segment& s : strips) {
    s.y1 += chains_top;
    s.y2 += chains_top;
    out.push_back(s);
  }
  id += strips.size();
  const int64_t strips_top =
      chains_top + static_cast<int64_t>(strip_target) * 4 + 16;
  while (out.size() < n) {
    // Long spans in their own bands above everything else.
    const int64_t y = strips_top + static_cast<int64_t>(out.size()) * 2;
    const int64_t a = rng.UniformInt(0, width / 4);
    const int64_t b = width - rng.UniformInt(0, width / 4);
    out.push_back(Segment::Make(Point{a, y}, Point{b, y}, id++));
  }
  // A small n still gets a whole 63-segment chain, so the families can
  // overshoot: keep the first n, whose ids stay consecutive.
  if (out.size() > n) out.resize(n);
  return out;
}

}  // namespace segdb::workload
