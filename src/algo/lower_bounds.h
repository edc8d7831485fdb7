// Cheap lower bounds on subtrajectory similarity, shared by the
// UCR-adapted matcher and the database engine's best-first scan.
//
// The UCR suite (Rakthanmanon et al., KDD 2012) gets its speed from a
// cascade of ever-tighter, ever-costlier lower bounds that discard
// candidates before the full DP runs. This unit hosts the reusable pieces:
//
//  * BuildMbrEnvelopes — the sliding-window MBR envelopes behind LB_Keogh
//    (moved out of ucr.cc so other matchers can build them);
//  * MbrLowerBound — an O(1) LB_KimFL-style bound from the data
//    trajectory's MBR: every warping path must align the first and last
//    query point with SOME data point, each at least the MBR distance away.
//    Never tighter than the next bound, so the engine does not call it; it
//    stays for the benchmark's per-layer replay and the bound tests;
//  * NearestEndpointLowerBound — the O(n) vectorized tightening of the same
//    bound using the exact nearest data point per query endpoint (computed
//    over the engine's cached SoA copy of the trajectory). It is the sort
//    key of engine::SimSubEngine::Query's best-first scan: candidates are
//    visited in ascending bound, and the scan stops at the first bound
//    above the best-kth exact distance — the optimal multi-step k-NN
//    strategy (Seidl & Kriegel, SIGMOD 1998).
//
// Both endpoint bounds are valid for the WHOLE-trajectory optimum: they
// bound dist(sub, query) for every subtrajectory simultaneously, because a
// subtrajectory's points are a subset of the trajectory's. Validity depends
// on the measure's aggregation family (similarity::DistanceAggregation):
// kSum measures (DTW, CDTW) get the sum of the endpoint distances, kMax
// measures (Frechet, Hausdorff) the max, and kOther measures get 0 (no
// bound — pruning falls back to DP-level early abandoning only).
#ifndef SIMSUB_ALGO_LOWER_BOUNDS_H_
#define SIMSUB_ALGO_LOWER_BOUNDS_H_

#include <span>
#include <vector>

#include "geo/mbr.h"
#include "geo/point.h"
#include "geo/soa.h"
#include "similarity/measure.h"

namespace simsub::algo {

/// Sliding-window MBR envelopes: env[i] = MBR(points[max(0, i-w) ..
/// min(end, i+w)]). Monotonic-deque sliding min/max per coordinate, O(n)
/// total. The 2-D adaptation of the LB_Keogh envelope.
std::vector<geo::Mbr> BuildMbrEnvelopes(std::span<const geo::Point> pts,
                                        int w);

/// O(1) LB_KimFL-style bound on min over subtrajectories T' of T of
/// dist(T', query), from T's bounding box alone. Returns 0 for kOther.
double MbrLowerBound(similarity::DistanceAggregation aggregation,
                     const geo::Mbr& data_mbr,
                     std::span<const geo::Point> query);

/// O(n) tightening of MbrLowerBound: the exact distance from each query
/// endpoint to its nearest data point (vectorized min-reduction over the
/// SoA copy). Always >= MbrLowerBound for the same trajectory. Returns 0
/// for kOther. Requires !data.empty().
double NearestEndpointLowerBound(similarity::DistanceAggregation aggregation,
                                 geo::PointsView data,
                                 std::span<const geo::Point> query);

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_LOWER_BOUNDS_H_
