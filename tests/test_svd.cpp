#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "model/model_config.hpp"
#include "model/procedural.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"
#include "tensor/svd.hpp"
#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {
namespace {

/// Oracle for jacobi_svd's bit-identity contract: the row-major
/// formulation frozen verbatim (strided columns through Matrix::at, each
/// column dot its own loop). jacobi_svd's contiguous column-major form
/// must reproduce every bit of u, v and the singular values.
SvdResult row_major_jacobi_svd(const Matrix& a, double tolerance = 1e-10,
                               int max_sweeps = 60) {
  const Index m = a.rows();
  const Index n = a.cols();
  Matrix w = a;
  Matrix v(n, n);
  for (Index i = 0; i < n; ++i) {
    v.at(i, i) = 1.0f;
  }
  const auto column_dot = [&w, m](Index ci, Index cj) {
    double acc = 0.0;
    for (Index r = 0; r < m; ++r) {
      acc += static_cast<double>(w.at(r, ci)) * static_cast<double>(w.at(r, cj));
    }
    return acc;
  };
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off_diagonal = 0.0;
    for (Index p = 0; p < n - 1; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        const double alpha = column_dot(p, p);
        const double beta = column_dot(q, q);
        const double gamma = column_dot(p, q);
        if (alpha * beta == 0.0) {
          continue;
        }
        off_diagonal = std::max(off_diagonal,
                                std::abs(gamma) / std::sqrt(alpha * beta));
        if (std::abs(gamma) <= tolerance * std::sqrt(alpha * beta)) {
          continue;
        }
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (Index r = 0; r < m; ++r) {
          const double wp = static_cast<double>(w.at(r, p));
          const double wq = static_cast<double>(w.at(r, q));
          w.at(r, p) = static_cast<float>(c * wp - s * wq);
          w.at(r, q) = static_cast<float>(s * wp + c * wq);
        }
        for (Index r = 0; r < n; ++r) {
          const double vp = static_cast<double>(v.at(r, p));
          const double vq = static_cast<double>(v.at(r, q));
          v.at(r, p) = static_cast<float>(c * vp - s * vq);
          v.at(r, q) = static_cast<float>(s * vp + c * vq);
        }
      }
    }
    if (off_diagonal <= tolerance) {
      break;
    }
  }
  const Index rank = std::min(m, n);
  std::vector<float> sigma_all(static_cast<std::size_t>(n));
  for (Index c = 0; c < n; ++c) {
    double norm_sq = 0.0;
    for (Index r = 0; r < m; ++r) {
      norm_sq += static_cast<double>(w.at(r, c)) * static_cast<double>(w.at(r, c));
    }
    sigma_all[static_cast<std::size_t>(c)] = static_cast<float>(std::sqrt(norm_sq));
  }
  const auto order = top_k_indices(sigma_all, rank);
  SvdResult out;
  out.u = Matrix(m, rank);
  out.v = Matrix(n, rank);
  out.singular_values.resize(static_cast<std::size_t>(rank));
  for (Index k = 0; k < rank; ++k) {
    const Index c = order[static_cast<std::size_t>(k)];
    const double sigma = static_cast<double>(sigma_all[static_cast<std::size_t>(c)]);
    out.singular_values[static_cast<std::size_t>(k)] = static_cast<float>(sigma);
    const double inv = sigma > 0.0 ? 1.0 / sigma : 0.0;
    for (Index r = 0; r < m; ++r) {
      out.u.at(r, k) = static_cast<float>(static_cast<double>(w.at(r, c)) * inv);
    }
    for (Index r = 0; r < n; ++r) {
      out.v.at(r, k) = v.at(r, c);
    }
  }
  return out;
}

/// Bit equality (not EXPECT_FLOAT_EQ's 4-ulp window) of two float ranges.
void expect_bits_equal(std::span<const float> got, std::span<const float> want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
        << what << " element " << i;
  }
}

void expect_svd_bits_equal(const Matrix& a, const std::string& label) {
  const auto got = jacobi_svd(a);
  const auto want = row_major_jacobi_svd(a);
  ASSERT_EQ(got.u.rows(), want.u.rows()) << label;
  ASSERT_EQ(got.u.cols(), want.u.cols()) << label;
  ASSERT_EQ(got.v.rows(), want.v.rows()) << label;
  ASSERT_EQ(got.v.cols(), want.v.cols()) << label;
  expect_bits_equal(got.singular_values, want.singular_values, label + " sigma");
  expect_bits_equal(got.u.flat(), want.u.flat(), label + " u");
  expect_bits_equal(got.v.flat(), want.v.flat(), label + " v");
}

TEST(SvdBitIdentity, MatchesRowMajorOracle) {
  const std::pair<Index, Index> shapes[] = {{4, 4}, {16, 8}, {8, 16}, {512, 64}};
  for (const auto& [rows, cols] : shapes) {
    const std::string label = std::to_string(rows) + "x" + std::to_string(cols);
    Rng rng(derive_seed(400, label));
    Matrix a(rows, cols);
    rng.fill_normal(a.flat(), 0.0, 1.0);
    expect_svd_bits_equal(a, label);
  }
}

TEST(SvdBitIdentity, MatchesRowMajorOracleOnInfiniGenCalibrationSlice) {
  // InfiniGen's offline SVD input: the leading 512 keys of one 64-dim head.
  SimShape shape;
  shape.num_layers = 1;
  shape.num_heads = 1;
  shape.head_dim = 64;
  ProceduralParams params;
  params.head_dim = 64;
  const ProceduralContextModel model(shape, params, 17, 512);
  expect_svd_bits_equal(model.head(0, 0).keys().row_slice(0, 512), "procedural 512x64");
}

class SvdShapes : public ::testing::TestWithParam<std::pair<Index, Index>> {};

TEST_P(SvdShapes, ReconstructionIsExact) {
  const auto [rows, cols] = GetParam();
  Rng rng(derive_seed(100, std::to_string(rows) + "x" + std::to_string(cols)));
  Matrix a(rows, cols);
  rng.fill_normal(a.flat(), 0.0, 1.0);
  const auto svd = jacobi_svd(a);
  const auto back = svd_reconstruct(svd);
  EXPECT_LT(frobenius_distance(a, back), 1e-3 * std::sqrt(static_cast<double>(a.size())));
}

TEST_P(SvdShapes, SingularValuesDescendingNonNegative) {
  const auto [rows, cols] = GetParam();
  Rng rng(derive_seed(200, std::to_string(rows)));
  Matrix a(rows, cols);
  rng.fill_normal(a.flat(), 0.0, 1.0);
  const auto svd = jacobi_svd(a);
  for (std::size_t i = 0; i + 1 < svd.singular_values.size(); ++i) {
    EXPECT_GE(svd.singular_values[i], svd.singular_values[i + 1]);
  }
  for (const float s : svd.singular_values) {
    EXPECT_GE(s, 0.0f);
  }
}

TEST_P(SvdShapes, SingularVectorsOrthonormal) {
  const auto [rows, cols] = GetParam();
  Rng rng(derive_seed(300, std::to_string(cols)));
  Matrix a(rows, cols);
  rng.fill_normal(a.flat(), 0.0, 1.0);
  const auto svd = jacobi_svd(a);
  const Index r = static_cast<Index>(svd.singular_values.size());
  // V columns orthonormal: V^T V = I.
  for (Index i = 0; i < r; ++i) {
    for (Index j = i; j < r; ++j) {
      double acc = 0.0;
      for (Index k = 0; k < svd.v.rows(); ++k) {
        acc += static_cast<double>(svd.v.at(k, i)) * static_cast<double>(svd.v.at(k, j));
      }
      EXPECT_NEAR(acc, i == j ? 1.0 : 0.0, 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapes,
                         ::testing::Values(std::pair<Index, Index>{4, 4},
                                           std::pair<Index, Index>{16, 8},
                                           std::pair<Index, Index>{12, 12},
                                           std::pair<Index, Index>{64, 16},
                                           std::pair<Index, Index>{32, 32}));

TEST(Svd, KnownDiagonal) {
  Matrix a(3, 3);
  a.at(0, 0) = 3.0f;
  a.at(1, 1) = 1.0f;
  a.at(2, 2) = 2.0f;
  const auto svd = jacobi_svd(a);
  ASSERT_EQ(svd.singular_values.size(), 3u);
  EXPECT_NEAR(svd.singular_values[0], 3.0f, 1e-5);
  EXPECT_NEAR(svd.singular_values[1], 2.0f, 1e-5);
  EXPECT_NEAR(svd.singular_values[2], 1.0f, 1e-5);
}

TEST(Svd, LowRankTruncationCapturesEnergy) {
  // Build an exactly rank-2 matrix; rank-2 truncation must reconstruct it.
  Rng rng(42);
  Matrix u(10, 2);
  Matrix v(2, 6);
  rng.fill_normal(u.flat(), 0.0, 1.0);
  rng.fill_normal(v.flat(), 0.0, 1.0);
  const Matrix a = matmul(u, v);
  const auto svd = jacobi_svd(a);
  const auto rank2 = svd_reconstruct(svd, 2);
  EXPECT_LT(frobenius_distance(a, rank2), 1e-3);
  EXPECT_LT(svd.singular_values[2], 1e-3);
}

TEST(Svd, TruncationRankValidated) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0f;
  a.at(1, 1) = 1.0f;
  const auto svd = jacobi_svd(a);
  EXPECT_THROW(svd_reconstruct(svd, 3), std::invalid_argument);
}

TEST(Svd, EmptyMatrixRejected) {
  Matrix empty;
  EXPECT_THROW(jacobi_svd(empty), std::invalid_argument);
}

}  // namespace
}  // namespace ckv
