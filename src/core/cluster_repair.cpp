#include "core/cluster_repair.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/kernels.hpp"
#include "core/kmeans.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {

namespace {

/// Plain union-find over cluster ids (path halving, union by size).
class UnionFind {
 public:
  explicit UnionFind(Index n)
      : parent_(static_cast<std::size_t>(n)), size_(static_cast<std::size_t>(n), 1) {
    std::iota(parent_.begin(), parent_.end(), Index{0});
  }

  Index find(Index x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  void unite(Index a, Index b) {
    a = find(a);
    b = find(b);
    if (a == b) {
      return;
    }
    if (size_[static_cast<std::size_t>(a)] < size_[static_cast<std::size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] += size_[static_cast<std::size_t>(b)];
  }

 private:
  std::vector<Index> parent_;
  std::vector<Index> size_;
};

/// Seed centroids for one merged group: the group's surviving centroids by
/// descending size (stable by id), padded with evenly strided group keys
/// when the target count exceeds the member count (oversized chunk-local
/// clusters can fold into more refined clusters than they merged from).
Matrix group_seeds(const CentroidStore& store, std::span<const Index> members,
                   const Matrix& group_keys, Index want) {
  std::vector<Index> by_size(members.begin(), members.end());
  std::stable_sort(by_size.begin(), by_size.end(), [&store](Index a, Index b) {
    return store.size_of(a) > store.size_of(b);
  });
  const Index from_members = std::min<Index>(want, static_cast<Index>(by_size.size()));
  Matrix seeds(want, store.head_dim());
  for (Index i = 0; i < from_members; ++i) {
    copy_to(store.centroids().row(by_size[static_cast<std::size_t>(i)]), seeds.row(i));
  }
  for (Index i = from_members; i < want; ++i) {
    const Index stride_row = (i * group_keys.rows()) / want;
    copy_to(group_keys.row(stride_row), seeds.row(i));
  }
  return seeds;
}

}  // namespace

RepairOutcome repair_clusters(CentroidStore& store, const Matrix& keys,
                              std::span<const Index> batch_first_cluster,
                              Index position_offset, ClusterCache* cache,
                              const ClusterRepairConfig& config) {
  expects(config.refine_iterations >= 1,
          "repair_clusters: refine_iterations must be >= 1");
  expects(config.tokens_per_cluster >= 1,
          "repair_clusters: tokens_per_cluster must be >= 1");
  RepairOutcome out;
  out.clusters_before = store.cluster_count();
  out.clusters_after = out.clusters_before;
  const Index clusters = store.cluster_count();
  if (clusters < 2 || batch_first_cluster.size() < 2) {
    return out;
  }

  const Index head_dim = store.head_dim();

  // (a) Merge: score every centroid pair across consecutive batches; pairs
  // at or above the threshold union into repair groups. Transitivity chains
  // groups across arbitrarily many chunks (a topic recurring in every chunk
  // merges end to end), keeping the scored pair count bounded by adjacent
  // batches instead of all-pairs.
  UnionFind groups(clusters);
  for (std::size_t b = 0; b + 1 < batch_first_cluster.size(); ++b) {
    const Index a_begin = batch_first_cluster[b];
    const Index a_end = batch_first_cluster[b + 1];
    const Index b_begin = a_end;
    const Index b_end = b + 2 < batch_first_cluster.size() ? batch_first_cluster[b + 2]
                                                           : clusters;
    std::vector<float> pair_scores(static_cast<std::size_t>(b_end - b_begin));
    for (Index i = a_begin; i < a_end; ++i) {
      // One batched pass scores centroid i against the whole next batch.
      batched_scores(store.centroids(), b_begin, b_end, store.centroids().row(i),
                     config.metric, pair_scores);
      out.scoring_flops += head_dim * (b_end - b_begin);
      for (Index j = b_begin; j < b_end; ++j) {
        if (pair_scores[static_cast<std::size_t>(j - b_begin)] >=
            static_cast<float>(config.merge_threshold)) {
          groups.unite(i, j);
        }
      }
    }
  }

  std::vector<std::vector<Index>> members(static_cast<std::size_t>(clusters));
  bool any_merge = false;
  for (Index c = 0; c < clusters; ++c) {
    members[static_cast<std::size_t>(groups.find(c))].push_back(c);
    any_merge |= groups.find(c) != c;
  }
  if (!any_merge) {
    return out;
  }

  // (b) Refine + rebuild: walk clusters in id order; singletons carry over
  // verbatim, each merged group is re-clustered once (at its first member)
  // with warm-started k-means at the paper's granularity rule. The new
  // label array covers the store's whole contiguous token range, so one
  // rebuild() call re-registers everything.
  const Index token_count = store.token_count();
  Matrix new_centroids;
  std::vector<Index> new_labels(static_cast<std::size_t>(token_count), -1);
  Index next_id = 0;
  auto label_positions = [&](std::span<const Index> positions,
                             std::span<const Index> local, Index base) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const Index rel = positions[i] - position_offset;
      expects(rel >= 0 && rel < token_count,
              "repair_clusters: clustered tokens must be contiguous from "
              "position_offset");
      new_labels[static_cast<std::size_t>(rel)] =
          base + (local.empty() ? 0 : local[i]);
    }
  };

  for (Index c = 0; c < clusters; ++c) {
    const Index root = groups.find(c);
    const auto& group = members[static_cast<std::size_t>(root)];
    if (group.size() == 1) {
      new_centroids.append_row(store.centroids().row(c));
      label_positions(store.tokens_of(c), {}, next_id);
      ++next_id;
      continue;
    }
    if (group.front() != c) {
      continue;  // group already emitted at its first member
    }
    std::vector<Index> positions;
    for (const Index m : group) {
      const auto tokens = store.tokens_of(m);
      positions.insert(positions.end(), tokens.begin(), tokens.end());
    }
    std::sort(positions.begin(), positions.end());
    Matrix group_keys(static_cast<Index>(positions.size()), head_dim);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      copy_to(keys.row(positions[i]), group_keys.row(static_cast<Index>(i)));
    }
    const Index want = std::min<Index>(
        group_keys.rows(),
        std::max<Index>(1, group_keys.rows() / config.tokens_per_cluster));
    KMeansConfig kconfig;
    kconfig.num_clusters = want;
    kconfig.metric = config.metric;
    kconfig.max_iterations = config.refine_iterations;
    const auto refined =
        kmeans_refine(group_keys, group_seeds(store, group, group_keys, want), kconfig);
    out.refine_flops += refined.iterations *
                        assignment_flops(group_keys.rows(), want, head_dim);
    for (Index r = 0; r < refined.centroids.rows(); ++r) {
      new_centroids.append_row(refined.centroids.row(r));
    }
    label_positions(positions, refined.labels, next_id);
    next_id += refined.centroids.rows();
    ++out.groups_repaired;
  }

  store.rebuild(new_centroids, new_labels, position_offset);
  out.clusters_after = store.cluster_count();
  out.changed = true;

  if (cache != nullptr) {
    // The window caches (cluster, tokens) pairs; token positions — and so
    // residency — are stable across the rebuild, only the labels move.
    std::vector<Index> token_to_cluster(
        static_cast<std::size_t>(position_offset + token_count), -1);
    for (std::size_t i = 0; i < new_labels.size(); ++i) {
      token_to_cluster[static_cast<std::size_t>(position_offset) + i] = new_labels[i];
    }
    cache->remap_window(token_to_cluster);
  }
  return out;
}

}  // namespace ckv
