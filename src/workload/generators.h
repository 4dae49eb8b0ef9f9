// Synthetic NCT segment workloads. The paper's motivating datasets are GIS
// map layers (collections of non-crossing, possibly touching segments);
// the generators below produce integer-coordinate sets with that invariant
// by construction, covering the geometric regimes the index structures
// care about: line-based sets (Section 2), mixed short/long spans
// (Section 4's fragment split), collinear-on-boundary segments (C
// structures), and realistic map-like mixtures.
//
// Every generator is deterministic in the passed Rng and returns segments
// with ids 0..n-1 (offset by `first_id`).
#ifndef SEGDB_WORKLOAD_GENERATORS_H_
#define SEGDB_WORKLOAD_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "geom/segment.h"
#include "util/random.h"

namespace segdb::workload {

// --- Line-based sets (canonical: base line x = base_x, extending right) ---

// Segments fanning right from the base line with slopes non-decreasing in
// their base ordinate: pairwise non-crossing, varied slopes and reaches.
std::vector<geom::Segment> GenLineBasedSorted(Rng& rng, uint64_t n,
                                              int64_t base_x,
                                              int64_t max_reach,
                                              uint64_t first_id = 0);

// Bundles of segments sharing base points (touching at the base line) with
// distinct slopes — exercises base-order tie-breaking.
std::vector<geom::Segment> GenLineBasedFan(Rng& rng, uint64_t n,
                                           int64_t base_x, int64_t max_reach,
                                           uint64_t bundle = 8,
                                           uint64_t first_id = 0);

// Random integer-slope segments from the base line, made non-crossing by
// truncating the later segment of every crossing pair (O(n^2) repair; for
// test-scale sets).
std::vector<geom::Segment> GenLineBasedRepaired(Rng& rng, uint64_t n,
                                                int64_t base_x,
                                                int64_t max_reach,
                                                uint64_t first_id = 0);

// --- Plane NCT sets ------------------------------------------------------

// Horizontal segments on distinct y-levels (a temporal layer: intervals
// over time). Never cross.
std::vector<geom::Segment> GenHorizontalStrips(Rng& rng, uint64_t n,
                                               int64_t width,
                                               uint64_t first_id = 0);

// Stacked x-monotone polylines sharing an x-grid (contour / road layers):
// `chains` polylines of `points_per_chain` vertices each; consecutive
// chain vertices become segments; chains stay strictly stacked so nothing
// crosses, while segments within a chain touch at shared vertices.
std::vector<geom::Segment> GenMonotoneChains(Rng& rng, uint64_t chains,
                                             uint64_t points_per_chain,
                                             int64_t width,
                                             uint64_t first_id = 0);

// A perturbed grid subdivision (city-block road map): horizontal, vertical
// and one diagonal edge per cell, vertices jittered within cell/8 so edges
// only meet at shared vertices.
std::vector<geom::Segment> GenGridPerturbed(Rng& rng, uint64_t cells_x,
                                            uint64_t cells_y,
                                            int64_t cell_size,
                                            double diagonal_prob = 0.5,
                                            uint64_t first_id = 0);

// Nested long horizontal spans centered on a common x (segment-tree /
// multislab stress: most segments span many slabs).
std::vector<geom::Segment> GenNestedSpans(Rng& rng, uint64_t n,
                                          int64_t max_half_width,
                                          uint64_t first_id = 0);

// Vertical segments lying on the line x = x0 with random disjoint-ish
// y-extents (the C-structure population: segments ON a base line).
std::vector<geom::Segment> GenCollinearVertical(Rng& rng, uint64_t n,
                                                int64_t x0, int64_t height,
                                                uint64_t first_id = 0);

// A mixed "map layer": monotone chains + strips + a few long spans, in
// disjoint bands. Exactly n segments, with consecutive ids from first_id.
// The default dataset for end-to-end experiments.
std::vector<geom::Segment> GenMapLayer(Rng& rng, uint64_t n, int64_t width,
                                       uint64_t first_id = 0);

}  // namespace segdb::workload

#endif  // SEGDB_WORKLOAD_GENERATORS_H_
