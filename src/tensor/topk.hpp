// Top-k and argsort helpers. Selection quality metrics (recall of
// important tokens, Fig. 11) and every selector's ranking step go through
// these, so ties are broken deterministically (by lower index).
#pragma once

#include <span>
#include <vector>

#include "util/common.hpp"

namespace ckv {

/// Indices of the k largest scores, descending by score, ties broken by
/// smaller index. k is clamped to scores.size(). -inf and +inf are
/// ordinary scores; NaN scores are outside the contract (they break the
/// comparator's total order, so the result is unspecified).
std::vector<Index> top_k_indices(std::span<const float> scores, Index k);

/// All indices sorted by descending score (ties by smaller index).
std::vector<Index> argsort_descending(std::span<const float> scores);

/// All indices sorted by ascending score (ties by smaller index).
std::vector<Index> argsort_ascending(std::span<const float> scores);

}  // namespace ckv
