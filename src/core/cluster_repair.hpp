// Cross-chunk cluster repair: recovers one-shot selection recall after
// chunked prefill. Incremental prefill clusters each prompt chunk locally
// (docs/SCHEDULING.md, "clustering-locality trade-off"), so semantically
// similar tokens split across chunk boundaries land in separate, polluted
// clusters. A repair pass (a) merges adjacent-batch clusters whose
// centroids exceed a similarity threshold (transitive chains span many
// chunks) and (b) re-clusters each merged group's keys with a few k-means
// refinement iterations seeded from the surviving centroids. The pass only
// rewrites centroid/label metadata: KV placement, attention sinks and
// pending tokens are untouched, so every budget and residency invariant
// holds mid-repair and nothing is re-pinned to the fast tier.
#pragma once

#include <span>

#include "core/centroid_store.hpp"
#include "core/cluster_cache.hpp"
#include "core/distance.hpp"
#include "tensor/matrix.hpp"
#include "util/common.hpp"

namespace ckv {

struct ClusterRepairConfig {
  /// Minimum centroid similarity (in `metric`) for two clusters of
  /// adjacent clustering batches to merge into one repair group. -1 merges
  /// every adjacent pair (exhaustive repair: with enough refinement
  /// iterations this re-clusters the whole range jointly, recovering the
  /// one-shot clustering on well-separated data).
  double merge_threshold = 0.8;
  /// k-means refinement iterations per merged group (the warm-started
  /// kmeans_refine cap). Must be >= 1; callers gate repair off themselves.
  Index refine_iterations = 4;
  /// Target granularity of the re-clustering: each merged group gets
  /// max(1, group_tokens / tokens_per_cluster) clusters (§III-B rule).
  Index tokens_per_cluster = 80;
  DistanceMetric metric = DistanceMetric::kCosine;
};

/// What one repair pass did, plus the work accounting the latency model's
/// repair_ms bill mirrors analytically.
struct RepairOutcome {
  bool changed = false;      ///< false: no pair crossed the threshold
  Index groups_repaired = 0; ///< merged groups that were re-clustered
  Index clusters_before = 0;
  Index clusters_after = 0;
  std::int64_t scoring_flops = 0;  ///< centroid-pair scoring MACs
  std::int64_t refine_flops = 0;   ///< k-means refinement assignment MACs
};

/// Runs one bounded repair pass over `store`. `keys` is the full per-head
/// key matrix (rows indexed by absolute token position); the store's
/// clusters must cover the contiguous position range
/// [position_offset, position_offset + store.token_count()).
/// `batch_first_cluster` holds the first cluster id of each clustering
/// batch in registration order (batches define chunk adjacency; fewer than
/// two batches makes the pass a no-op). When `cache` is non-null its
/// window is relabeled onto the rebuilt cluster ids — the cached token set
/// (and therefore fast-tier residency) is never altered.
RepairOutcome repair_clusters(CentroidStore& store, const Matrix& keys,
                              std::span<const Index> batch_first_cluster,
                              Index position_offset, ClusterCache* cache,
                              const ClusterRepairConfig& config);

}  // namespace ckv
