#include "core/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>

#include "tensor/vec_ops.hpp"
#include "util/parallel.hpp"

// The AVX2 instantiation of the assignment kernel needs the target
// attribute, a CPU feature query and __builtin_shufflevector: x86-64
// GCC (12+) and Clang. Other targets build the portable kernel alone.
#if defined(__x86_64__) && defined(__GNUC__) && defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector) && __has_builtin(__builtin_cpu_supports)
#define CKV_ARGMAX_AVX2 1
#endif
#endif
#ifndef CKV_ARGMAX_AVX2
#define CKV_ARGMAX_AVX2 0
#endif

namespace ckv {

namespace {

/// Chunk size for pool dispatch: keep every chunk at roughly this many
/// multiply-accumulates so small batches stay serial and large ones split
/// into enough chunks to balance.
constexpr Index kGrainFlops = 1 << 16;

Index score_grain(Index work_per_item) noexcept {
  return std::max<Index>(1, kGrainFlops / std::max<Index>(1, work_per_item));
}

/// Jobs below this many multiply-accumulates run on the calling thread as
/// one chunk: waking the pool costs about as much as the job. A 2048-row
/// gathered dot at d = 64 (2 grains) took 15 ns/row inline and 18-23
/// ns/row split over 4 workers on a 4-core host.
constexpr Index kInlineFlops = 4 * kGrainFlops;

/// Per-centroid argmax adjustments reducing every metric to
/// argmax(dot * mult + bias): cosine multiplies by 1/|c| (the key norm is
/// constant per key and drops out), L2 subtracts |c|^2 / 2 (|k|^2 drops
/// out), inner product is the raw dot.
void argmax_adjustments(const Matrix& centroids, DistanceMetric metric,
                        std::vector<float>& mult, std::vector<float>& bias) {
  const std::size_t c_count = static_cast<std::size_t>(centroids.rows());
  mult.assign(c_count, 1.0f);
  bias.assign(c_count, 0.0f);
  if (metric == DistanceMetric::kInnerProduct) {
    return;
  }
  for (Index c = 0; c < centroids.rows(); ++c) {
    const double norm = norm2(centroids.row(c));
    if (metric == DistanceMetric::kCosine) {
      mult[static_cast<std::size_t>(c)] =
          norm > 0.0 ? static_cast<float>(1.0 / norm) : 0.0f;
    } else {
      bias[static_cast<std::size_t>(c)] = static_cast<float>(-0.5 * norm * norm);
    }
  }
}

/// Float vector-extension types for one key's kDotLanes accumulators: two
/// Float4 in the portable kernel (SSE width), one Float8 in the AVX2
/// kernel. GCC and Clang both lower arithmetic on these types lane-wise, so
/// the register blocking below stays explicit without intrinsics (nested
/// scalar float arrays did not stay in registers).
using Float4 = float __attribute__((vector_size(16)));
static_assert(kDotLanes == 8, "argmax_block holds the 8 lanes as 2 x 4 or 1 x 8");

/// Loads through a reference: returning a Float8 by value from a function
/// compiled without AVX would change the ABI (-Wpsabi).
template <typename Vec>
[[gnu::always_inline]] inline void load_vec(Vec& v, const float* p) noexcept {
  std::memcpy(&v, p, sizeof(v));
}

/// Keys scored per pass over a centroid row: every key holds its own
/// accumulator chains (two Float4 or one Float8), so 4 keys give 8 or 4
/// independent chains while sharing each centroid load.
constexpr Index kArgmaxKeys = 4;

struct ArgmaxOperands {
  const Matrix& keys;
  const Matrix& centroids;
  const std::vector<float>& mult;  ///< per-centroid score multiplier
  const std::vector<float>& bias;  ///< per-centroid score offset
};

/// Labels keys [first, first + kKeys) with argmax_c (dot(key, c) * mult_c +
/// bias_c). Each (key, centroid) dot reproduces dot_f32 exactly: the
/// kDotLanes-lane walk, the 4/2/1 pairwise tree, then the serial tail; a
/// strict `>` keeps the first maximum (and label 0 for a NaN key). `Vec`
/// only sets how many registers hold a key's lanes, never the order.
template <typename Vec, Index kKeys>
[[gnu::always_inline]] inline void argmax_block(const ArgmaxOperands& op, Index first,
                                                Index* labels) {
  constexpr Index kWidth = sizeof(Vec) / sizeof(float);
  constexpr Index kRegs = static_cast<Index>(kDotLanes) / kWidth;  // per key
  static_assert(kRegs == 1 || kRegs == 2, "a key's lanes are 1 x 8 or 2 x 4");
  const Index dim = op.keys.cols();
  const Index lane_end = dim - dim % static_cast<Index>(kDotLanes);
  const float* centroid_base = op.centroids.flat().data();
  const float* key[kKeys];
  float best[kKeys];
  Index best_c[kKeys];
  for (Index k = 0; k < kKeys; ++k) {
    key[k] = op.keys.flat().data() + (first + k) * dim;
    best[k] = -std::numeric_limits<float>::infinity();
    best_c[k] = 0;
  }
  for (Index c = 0; c < op.centroids.rows(); ++c) {
    const float* cen = centroid_base + c * dim;
    Vec acc[kRegs][kKeys] = {};  // acc[r][k]: lanes [r * kWidth, (r + 1) * kWidth)
    for (Index i = 0; i < lane_end; i += static_cast<Index>(kDotLanes)) {
      for (Index r = 0; r < kRegs; ++r) {
        Vec cen_r;
        load_vec(cen_r, cen + i + r * kWidth);
        for (Index k = 0; k < kKeys; ++k) {
          Vec key_r;
          load_vec(key_r, key[k] + i + r * kWidth);
          acc[r][k] += key_r * cen_r;
        }
      }
    }
    float total[kKeys];
    for (Index k = 0; k < kKeys; ++k) {
      Float4 half;  // tree stride 4
      if constexpr (kRegs == 2) {
        half = acc[0][k] + acc[1][k];
      } else {
        half = __builtin_shufflevector(acc[0][k], acc[0][k], 0, 1, 2, 3) +
               __builtin_shufflevector(acc[0][k], acc[0][k], 4, 5, 6, 7);
      }
      total[k] = (half[0] + half[2]) + (half[1] + half[3]);  // strides 2, 1
    }
    // The tail gets its own loop: folded into the reduction loop above,
    // GCC zeroed the accumulators with `rep stos` and reduced them
    // through the stack, losing the register blocking.
    if (lane_end != dim) {
      for (Index k = 0; k < kKeys; ++k) {
        for (Index i = lane_end; i < dim; ++i) {
          total[k] += key[k][i] * cen[i];
        }
      }
    }
    const float m = op.mult[static_cast<std::size_t>(c)];
    const float b = op.bias[static_cast<std::size_t>(c)];
    for (Index k = 0; k < kKeys; ++k) {
      const float score = total[k] * m + b;
      if (score > best[k]) {
        best[k] = score;
        best_c[k] = c;
      }
    }
  }
  for (Index k = 0; k < kKeys; ++k) {
    labels[k] = best_c[k];
  }
}

/// Labels the keys of blocks [block_begin, block_end): whole blocks take
/// kArgmaxKeys keys per centroid pass, the last n % kArgmaxKeys keys take
/// a block of one. Blocking only shares the centroid loads, so every label
/// is independent of it.
template <typename Vec>
[[gnu::always_inline]] inline void argmax_blocks(const ArgmaxOperands& op,
                                                 Index block_begin, Index block_end,
                                                 Index* labels) {
  const Index n = op.keys.rows();
  for (Index block = block_begin; block < block_end; ++block) {
    const Index first = block * kArgmaxKeys;
    if (first + kArgmaxKeys <= n) {
      argmax_block<Vec, kArgmaxKeys>(op, first, labels + first);
      continue;
    }
    for (Index i = first; i < n; ++i) {
      argmax_block<Vec, 1>(op, i, labels + i);
    }
  }
}

void argmax_blocks_portable(const ArgmaxOperands& op, Index block_begin,
                            Index block_end, Index* labels) {
  argmax_blocks<Float4>(op, block_begin, block_end, labels);
}

#if CKV_ARGMAX_AVX2
/// The same source at AVX2 width: one key's 8 lanes in one ymm register.
/// FMA stays off, so `* then +` rounds twice exactly as in dot_f32.
using Float8 = float __attribute__((vector_size(32)));

[[gnu::target("avx2")]] void argmax_blocks_avx2(const ArgmaxOperands& op,
                                                Index block_begin, Index block_end,
                                                Index* labels) {
  argmax_blocks<Float8>(op, block_begin, block_end, labels);
}
#endif

using ArgmaxBlocksFn = void (*)(const ArgmaxOperands&, Index, Index, Index*);

ArgmaxBlocksFn argmax_blocks_for([[maybe_unused]] detail::ArgmaxIsa isa) {
#if CKV_ARGMAX_AVX2
  if (isa == detail::ArgmaxIsa::kAvx2) {
    return argmax_blocks_avx2;
  }
#endif
  return argmax_blocks_portable;
}

/// Set by detail::ScopedArgmaxIsa on the thread that calls batched_argmax.
thread_local std::optional<detail::ArgmaxIsa> argmax_isa_override;

}  // namespace

void batched_scores(const Matrix& rows, Index row_begin, Index row_end,
                    std::span<const float> query, DistanceMetric metric,
                    std::span<float> out, float scale) {
  expects(static_cast<Index>(query.size()) == rows.cols(),
          "batched_scores: query width mismatch");
  expects(row_begin >= 0 && row_begin <= row_end && row_end <= rows.rows(),
          "batched_scores: row range out of bounds");
  expects(static_cast<Index>(out.size()) == row_end - row_begin,
          "batched_scores: output size mismatch");
  if (row_begin == row_end) {
    return;
  }
  const Index dim = rows.cols();
  const float* base = rows.flat().data();  // hoisted: no per-row bounds check
  const auto row_at = [base, dim](Index r) {
    return std::span<const float>(base + r * dim, static_cast<std::size_t>(dim));
  };
  // The query norm is shared by every cosine score; compute it once.
  const float query_norm = metric == DistanceMetric::kCosine ? norm2_f32(query) : 0.0f;
  parallel_for_range(row_begin, row_end, score_grain(dim), [&](Index begin, Index end) {
    switch (metric) {
      case DistanceMetric::kInnerProduct:
        for (Index r = begin; r < end; ++r) {
          out[static_cast<std::size_t>(r - row_begin)] =
              dot_f32(query, row_at(r)) * scale;
        }
        break;
      case DistanceMetric::kCosine:
        for (Index r = begin; r < end; ++r) {
          const auto row = row_at(r);
          const float row_norm = norm2_f32(row);
          out[static_cast<std::size_t>(r - row_begin)] =
              query_norm == 0.0f || row_norm == 0.0f
                  ? 0.0f
                  : dot_f32(query, row) / (query_norm * row_norm) * scale;
        }
        break;
      case DistanceMetric::kL2:
        for (Index r = begin; r < end; ++r) {
          out[static_cast<std::size_t>(r - row_begin)] =
              -squared_l2_f32(query, row_at(r)) * scale;
        }
        break;
    }
  });
}

void batched_scores(const Matrix& rows, std::span<const float> query,
                    DistanceMetric metric, std::span<float> out, float scale) {
  batched_scores(rows, 0, rows.rows(), query, metric, out, scale);
}

void batched_dot_at(const Matrix& rows, std::span<const Index> positions,
                    std::span<const float> query, std::span<float> out, float scale) {
  expects(static_cast<Index>(query.size()) == rows.cols(),
          "batched_dot_at: query width mismatch");
  expects(out.size() == positions.size(), "batched_dot_at: output size mismatch");
  const Index n = static_cast<Index>(positions.size());
  for (const Index p : positions) {
    expects(p >= 0 && p < rows.rows(), "batched_dot_at: position out of range");
  }
  const Index dim = rows.cols();
  const float* base = rows.flat().data();
  const Index grain = n * dim < kInlineFlops ? std::max<Index>(1, n) : score_grain(dim);
  parallel_for_range(0, n, grain, [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      const std::span<const float> row(
          base + positions[static_cast<std::size_t>(i)] * dim,
          static_cast<std::size_t>(dim));
      out[static_cast<std::size_t>(i)] = dot_f32(query, row) * scale;
    }
  });
}

void batched_pair_scores(const Matrix& a, const Matrix& b,
                         std::span<const Index> pairs, DistanceMetric metric,
                         std::span<float> out) {
  expects(a.cols() == b.cols(), "batched_pair_scores: dim mismatch");
  expects(pairs.size() == static_cast<std::size_t>(a.rows()),
          "batched_pair_scores: one pair per row of a");
  expects(out.size() == pairs.size(), "batched_pair_scores: output size mismatch");
  for (const Index p : pairs) {
    expects(p >= 0 && p < b.rows(), "batched_pair_scores: pair index out of range");
  }
  parallel_for_range(0, a.rows(), score_grain(a.cols()), [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      const auto row_a = a.row(i);
      const auto row_b = b.row(pairs[static_cast<std::size_t>(i)]);
      float score = 0.0f;
      switch (metric) {
        case DistanceMetric::kInnerProduct:
          score = dot_f32(row_a, row_b);
          break;
        case DistanceMetric::kCosine: {
          const float na = norm2_f32(row_a);
          const float nb = norm2_f32(row_b);
          score = na == 0.0f || nb == 0.0f ? 0.0f : dot_f32(row_a, row_b) / (na * nb);
          break;
        }
        case DistanceMetric::kL2:
          score = -squared_l2_f32(row_a, row_b);
          break;
      }
      out[static_cast<std::size_t>(i)] = score;
    }
  });
}

std::vector<Index> batched_argmax(const Matrix& keys, const Matrix& centroids,
                                  DistanceMetric metric) {
  expects(keys.cols() == centroids.cols(), "batched_argmax: dim mismatch");
  expects(centroids.rows() > 0, "batched_argmax: need at least one centroid");
  const Index n = keys.rows();
  const Index dim = keys.cols();

  std::vector<float> mult;
  std::vector<float> bias;
  argmax_adjustments(centroids, metric, mult, bias);

  // Each pool chunk is a run of whole key blocks; the kernel variant is
  // picked here, on the calling thread, so every chunk runs the same one.
  std::vector<Index> labels(static_cast<std::size_t>(n), 0);
  const ArgmaxOperands op{keys, centroids, mult, bias};
  const ArgmaxBlocksFn run_blocks =
      argmax_blocks_for(argmax_isa_override.value_or(detail::dispatched_argmax_isa()));
  const Index blocks = (n + kArgmaxKeys - 1) / kArgmaxKeys;
  const Index grain = score_grain(kArgmaxKeys * centroids.rows() * dim);
  parallel_for_range(0, blocks, grain, [&](Index block_begin, Index block_end) {
    run_blocks(op, block_begin, block_end, labels.data());
  });
  return labels;
}

namespace detail {

const char* to_string(ArgmaxIsa isa) noexcept {
  return isa == ArgmaxIsa::kAvx2 ? "avx2" : "portable";
}

bool argmax_isa_supported(ArgmaxIsa isa) noexcept {
  if (isa == ArgmaxIsa::kPortable) {
    return true;
  }
#if CKV_ARGMAX_AVX2
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

ArgmaxIsa dispatched_argmax_isa() noexcept {
  return argmax_isa_supported(ArgmaxIsa::kAvx2) ? ArgmaxIsa::kAvx2
                                                : ArgmaxIsa::kPortable;
}

ScopedArgmaxIsa::ScopedArgmaxIsa(ArgmaxIsa isa) : previous_(argmax_isa_override) {
  expects(argmax_isa_supported(isa), "ScopedArgmaxIsa: variant not supported here");
  argmax_isa_override = isa;
}

ScopedArgmaxIsa::~ScopedArgmaxIsa() { argmax_isa_override = previous_; }

}  // namespace detail

std::vector<Index> assign_labels(const Matrix& keys, const Matrix& centroids,
                                 DistanceMetric metric) {
  return batched_argmax(keys, centroids, metric);
}

void centroid_update(const Matrix& keys, std::span<const Index> labels,
                     const Matrix& previous, Index channel_partitions,
                     Matrix& centroids_out, std::vector<Index>& counts_out) {
  expects(static_cast<Index>(labels.size()) == keys.rows(),
          "centroid_update: labels size must match key rows");
  expects(channel_partitions > 0, "centroid_update: partitions must be positive");
  expects(previous.cols() == keys.cols(), "centroid_update: dim mismatch");
  const Index num_clusters = previous.rows();
  const Index dim = keys.cols();

  centroids_out = Matrix(num_clusters, dim);
  counts_out.assign(static_cast<std::size_t>(num_clusters), 0);

  for (const Index label : labels) {
    expects(label >= 0 && label < num_clusters, "centroid_update: label out of range");
    ++counts_out[static_cast<std::size_t>(label)];
  }

  // Mirrors the CUDA kernel's shape: the channel dimension is split into
  // `channel_partitions` chunks; within a chunk, tokens are visited with a
  // stride equal to the number of concurrent "lanes" so that adjacent
  // lanes touch distant (likely differently-labeled) tokens. Partitions
  // accumulate into disjoint channel ranges, so they are the parallel
  // dimension here too — and because the token walk within a channel is
  // fixed, the accumulated sums are bit-identical for every worker count.
  const Index chunk = (dim + channel_partitions - 1) / channel_partitions;
  const Index lanes = channel_partitions;  // one lane per channel chunk
  parallel_for_range(0, channel_partitions, /*grain=*/1, [&](Index part_begin,
                                                             Index part_end) {
    for (Index part = part_begin; part < part_end; ++part) {
      const Index c_begin = part * chunk;
      const Index c_end = std::min(dim, c_begin + chunk);
      if (c_begin >= c_end) {
        continue;
      }
      for (Index start = 0; start < lanes; ++start) {
        for (Index t = start; t < keys.rows(); t += lanes) {
          const Index label = labels[static_cast<std::size_t>(t)];
          const auto key = keys.row(t);
          auto acc = centroids_out.row(label);
          for (Index c = c_begin; c < c_end; ++c) {
            acc[static_cast<std::size_t>(c)] += key[static_cast<std::size_t>(c)];
          }
        }
      }
    }
  });

  for (Index k = 0; k < num_clusters; ++k) {
    const Index n = counts_out[static_cast<std::size_t>(k)];
    auto row = centroids_out.row(k);
    if (n == 0) {
      copy_to(previous.row(k), row);
      continue;
    }
    const float inv = 1.0f / static_cast<float>(n);
    for (float& v : row) {
      v *= inv;
    }
  }
}

Index assignment_flops(Index num_keys, Index num_clusters, Index head_dim) noexcept {
  return num_keys * num_clusters * head_dim;
}

}  // namespace ckv
