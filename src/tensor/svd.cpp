#include "tensor/svd.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {

namespace {

/// Applies the Jacobi rotation [c -s; s c] to the contiguous column pair
/// (x, y) of length len, in double, storing back to float.
void rotate_columns(float* x, float* y, std::size_t len, double c, double s) noexcept {
  for (std::size_t r = 0; r < len; ++r) {
    const double xr = static_cast<double>(x[r]);
    const double yr = static_cast<double>(y[r]);
    x[r] = static_cast<float>(c * xr - s * yr);
    y[r] = static_cast<float>(s * xr + c * yr);
  }
}

}  // namespace

SvdResult jacobi_svd(const Matrix& a, double tolerance, int max_sweeps) {
  expects(!a.empty(), "jacobi_svd: matrix must not be empty");
  // One-sided Jacobi works on columns of a working copy w (m x n),
  // orthogonalizing column pairs; V accumulates the rotations. Both are
  // stored column-major so every pair touches two contiguous columns.
  const Index m = a.rows();
  const Index n = a.cols();
  const auto um = static_cast<std::size_t>(m);
  const auto un = static_cast<std::size_t>(n);
  std::vector<float> w(um * un);
  for (std::size_t r = 0; r < um; ++r) {
    const auto row = a.row(static_cast<Index>(r));
    for (std::size_t c = 0; c < un; ++c) {
      w[c * um + r] = row[c];
    }
  }
  std::vector<float> v(un * un, 0.0f);
  for (std::size_t i = 0; i < un; ++i) {
    v[i * un + i] = 1.0f;
  }

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off_diagonal = 0.0;
    for (std::size_t p = 0; p + 1 < un; ++p) {
      for (std::size_t q = p + 1; q < un; ++q) {
        float* wp_col = w.data() + p * um;
        float* wq_col = w.data() + q * um;
        // |w_p|^2, |w_q|^2 and <w_p, w_q>: three independent double
        // chains, each accumulated in row order.
        double alpha = 0.0;
        double beta = 0.0;
        double gamma = 0.0;
        for (std::size_t r = 0; r < um; ++r) {
          const double wp = static_cast<double>(wp_col[r]);
          const double wq = static_cast<double>(wq_col[r]);
          alpha += wp * wp;
          beta += wq * wq;
          gamma += wp * wq;
        }
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
        rotate_columns(wp_col, wq_col, um, c, s);
        rotate_columns(v.data() + p * un, v.data() + q * un, un, c, s);
      }
    }
    if (off_diagonal <= tolerance) {
      break;
    }
  }

  // Singular values are the column norms of w; U columns are normalized w.
  const Index rank = std::min(m, n);
  std::vector<float> sigma_all(un);
  for (std::size_t c = 0; c < un; ++c) {
    const float* col = w.data() + c * um;
    double norm_sq = 0.0;
    for (std::size_t r = 0; r < um; ++r) {
      norm_sq += static_cast<double>(col[r]) * static_cast<double>(col[r]);
    }
    sigma_all[c] = static_cast<float>(std::sqrt(norm_sq));
  }

  const auto order = top_k_indices(sigma_all, rank);
  SvdResult out;
  out.u = Matrix(m, rank);
  out.v = Matrix(n, rank);
  out.singular_values.resize(static_cast<std::size_t>(rank));
  for (Index k = 0; k < rank; ++k) {
    const auto c = static_cast<std::size_t>(order[static_cast<std::size_t>(k)]);
    const double sigma = static_cast<double>(sigma_all[c]);
    out.singular_values[static_cast<std::size_t>(k)] = static_cast<float>(sigma);
    const double inv = sigma > 0.0 ? 1.0 / sigma : 0.0;
    const float* w_col = w.data() + c * um;
    const float* v_col = v.data() + c * un;
    for (Index r = 0; r < m; ++r) {
      out.u.at(r, k) = static_cast<float>(
          static_cast<double>(w_col[static_cast<std::size_t>(r)]) * inv);
    }
    for (Index r = 0; r < n; ++r) {
      out.v.at(r, k) = v_col[static_cast<std::size_t>(r)];
    }
  }
  return out;
}

Matrix svd_reconstruct(const SvdResult& svd, Index rank) {
  const Index full_rank = static_cast<Index>(svd.singular_values.size());
  if (rank < 0) {
    rank = full_rank;
  }
  expects(rank <= full_rank, "svd_reconstruct: rank exceeds decomposition rank");
  Matrix out(svd.u.rows(), svd.v.rows());
  for (Index k = 0; k < rank; ++k) {
    const float sigma = svd.singular_values[static_cast<std::size_t>(k)];
    for (Index r = 0; r < out.rows(); ++r) {
      const float us = svd.u.at(r, k) * sigma;
      if (us == 0.0f) {
        continue;
      }
      for (Index c = 0; c < out.cols(); ++c) {
        out.at(r, c) += us * svd.v.at(c, k);
      }
    }
  }
  return out;
}

}  // namespace ckv
