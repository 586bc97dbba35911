// Common small utilities shared by every module: index type, contract
// checks, and seed derivation for deterministic experiments.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ckv {

/// Signed index type used for all sizes and positions (ES.102: use signed
/// types for arithmetic). Converted at std:: container boundaries.
using Index = std::int64_t;

/// Bytes of one stored K or V element: fp16, as in the paper. The one
/// width behind every residency and latency byte count (per-head stores,
/// the scheduler's projections, the latency model's HBM and wire terms).
inline constexpr Index kFp16Bytes = 2;

/// Throws std::invalid_argument when a precondition does not hold.
/// Used at public API boundaries; hot inner loops avoid it.
inline void expects(bool condition, std::string_view message) {
  if (!condition) {
    throw std::invalid_argument(std::string(message));
  }
}

/// Throws std::logic_error when a postcondition/invariant does not hold.
inline void ensures(bool condition, std::string_view message) {
  if (!condition) {
    throw std::logic_error(std::string(message));
  }
}

/// FNV-1a hash of a string, used to derive child RNG seeds from a parent
/// seed plus a human-readable tag so experiments stay reproducible while
/// components get decorrelated streams.
std::uint64_t fnv1a(std::string_view text) noexcept;

/// Derives a child seed from a parent seed and a tag (stable across runs).
std::uint64_t derive_seed(std::uint64_t parent, std::string_view tag) noexcept;

}  // namespace ckv
