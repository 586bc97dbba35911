#include "metrics/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace ckv {

double recall_of(std::span<const Index> selected, std::span<const Index> truth) {
  if (truth.empty()) {
    return 0.0;
  }
  expects(std::is_sorted(selected.begin(), selected.end()),
          "recall_of: selected must be ascending");
  std::vector<Index> sorted_truth(truth.begin(), truth.end());
  std::sort(sorted_truth.begin(), sorted_truth.end());
  // Merge: each truth entry counts when selected holds it.
  Index overlap = 0;
  std::size_t j = 0;
  for (const Index t : sorted_truth) {
    while (j < selected.size() && selected[j] < t) {
      ++j;
    }
    if (j < selected.size() && selected[j] == t) {
      ++overlap;
    }
  }
  return static_cast<double>(overlap) / static_cast<double>(truth.size());
}

double attention_mass(std::span<const float> probabilities,
                      std::span<const Index> selected) {
  double mass = 0.0;
  for (const Index i : selected) {
    expects(i >= 0 && i < static_cast<Index>(probabilities.size()),
            "attention_mass: index out of range");
    mass += static_cast<double>(probabilities[static_cast<std::size_t>(i)]);
  }
  return std::min(mass, 1.0);
}

double blended_quality(double recall, double coverage) noexcept {
  const double r = std::clamp(recall, 0.0, 1.0);
  const double c = std::clamp(coverage, 0.0, 1.0);
  return 0.35 * r + 0.65 * c;
}

double quality_to_score(double quality, double full_kv_score, double difficulty) {
  expects(difficulty > 0.0, "quality_to_score: difficulty must be positive");
  const double q = std::clamp(quality, 0.0, 1.0);
  return full_kv_score * (1.0 - std::pow(1.0 - q, difficulty));
}

}  // namespace ckv
