// Selection-quality metrics shared by every experiment: recall of
// important tokens (the Fig. 11 metric), attention-mass coverage, and the
// blended task-quality signal used by the synthetic LongBench suite.
#pragma once

#include <span>
#include <vector>

#include "util/common.hpp"

namespace ckv {

/// |selected ∩ truth| / |truth| (0 for empty truth). `selected` must be
/// ascending (SelectionResult's order; duplicates count once); `truth` may
/// be in any order.
double recall_of(std::span<const Index> selected, std::span<const Index> truth);

/// Sum of probabilities at the selected indices (probabilities should sum
/// to 1 over the full context).
double attention_mass(std::span<const float> probabilities,
                      std::span<const Index> selected);

/// Blended per-step quality in [0, 1] combining top-B recall and attention
/// coverage. Coverage dominates (it is what determines the attention
/// output), recall sharpens the signal for needle retrieval.
double blended_quality(double recall, double coverage) noexcept;

/// Maps an average attention quality to a task score anchored at the
/// full-KV score: score = full_kv_score * (1 - (1 - quality)^difficulty).
/// The mapping is concave — imperfect attention still answers most of the
/// question, which is why LongBench scores degrade gently until selection
/// quality collapses. Full KV has quality 1 by construction, so it lands
/// exactly on the anchor; `difficulty` (the exponent) encodes how
/// budget-sensitive a task is (lower = degrades faster).
double quality_to_score(double quality, double full_kv_score, double difficulty);

}  // namespace ckv
