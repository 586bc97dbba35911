#include "tensor/topk.hpp"

#include <algorithm>
#include <numeric>

namespace ckv {

namespace {

std::vector<Index> iota_indices(std::size_t n) {
  std::vector<Index> idx(n);
  std::iota(idx.begin(), idx.end(), Index{0});
  return idx;
}

}  // namespace

std::vector<Index> top_k_indices(std::span<const float> scores, Index k) {
  expects(k >= 0, "top_k_indices: k must be non-negative");
  k = std::min<Index>(k, static_cast<Index>(scores.size()));
  auto idx = iota_indices(scores.size());
  const auto greater = [&scores](Index a, Index b) {
    const float sa = scores[static_cast<std::size_t>(a)];
    const float sb = scores[static_cast<std::size_t>(b)];
    if (sa != sb) {
      return sa > sb;
    }
    return a < b;
  };
  // `greater` is a strict total order (distinct indices break every tie),
  // so the top k and their order are unique: partitioning first and
  // sorting only the k winners gives partial_sort's exact output at
  // O(n + k log k) instead of O(n log k).
  const auto kth = idx.begin() + static_cast<std::ptrdiff_t>(k);
  if (k > 0 && kth != idx.end()) {
    std::nth_element(idx.begin(), kth, idx.end(), greater);
  }
  idx.resize(static_cast<std::size_t>(k));
  std::sort(idx.begin(), idx.end(), greater);
  return idx;
}

std::vector<Index> argsort_descending(std::span<const float> scores) {
  auto idx = iota_indices(scores.size());
  std::sort(idx.begin(), idx.end(), [&scores](Index a, Index b) {
    const float sa = scores[static_cast<std::size_t>(a)];
    const float sb = scores[static_cast<std::size_t>(b)];
    if (sa != sb) {
      return sa > sb;
    }
    return a < b;
  });
  return idx;
}

std::vector<Index> argsort_ascending(std::span<const float> scores) {
  auto idx = iota_indices(scores.size());
  std::sort(idx.begin(), idx.end(), [&scores](Index a, Index b) {
    const float sa = scores[static_cast<std::size_t>(a)];
    const float sb = scores[static_cast<std::size_t>(b)];
    if (sa != sb) {
      return sa < sb;
    }
    return a < b;
  });
  return idx;
}

}  // namespace ckv
