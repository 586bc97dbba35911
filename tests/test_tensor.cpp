#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"
#include "tensor/softmax.hpp"
#include "tensor/stats.hpp"
#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {
namespace {

TEST(Matrix, ConstructAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  m.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.row(1)[2], 5.0f);
}

TEST(Matrix, AppendRowAdoptsWidth) {
  Matrix m;
  const std::vector<float> r0{1.0f, 2.0f};
  m.append_row(r0);
  EXPECT_EQ(m.rows(), 1);
  EXPECT_EQ(m.cols(), 2);
  const std::vector<float> bad{1.0f, 2.0f, 3.0f};
  EXPECT_THROW(m.append_row(bad), std::invalid_argument);
}

TEST(Matrix, OutOfRangeThrows) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.row(2), std::invalid_argument);
  EXPECT_THROW((void)m.at(0, 2), std::invalid_argument);
  EXPECT_THROW((void)m.row(-1), std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(1);
  Matrix m(3, 5);
  rng.fill_normal(m.flat(), 0.0, 1.0);
  const auto tt = m.transposed().transposed();
  EXPECT_DOUBLE_EQ(frobenius_distance(m, tt), 0.0);
}

TEST(Matrix, RowSlice) {
  Matrix m(4, 2);
  for (Index r = 0; r < 4; ++r) {
    m.at(r, 0) = static_cast<float>(r);
  }
  const auto s = m.row_slice(1, 3);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_FLOAT_EQ(s.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(s.at(1, 0), 2.0f);
}

TEST(Matrix, MatmulIdentity) {
  Rng rng(2);
  Matrix a(3, 3);
  rng.fill_normal(a.flat(), 0.0, 1.0);
  Matrix eye(3, 3);
  for (Index i = 0; i < 3; ++i) {
    eye.at(i, i) = 1.0f;
  }
  EXPECT_LT(frobenius_distance(matmul(a, eye), a), 1e-6);
  EXPECT_LT(frobenius_distance(matmul(eye, a), a), 1e-6);
}

TEST(Matrix, MatvecMatchesManual) {
  Matrix m(2, 2);
  m.at(0, 0) = 1.0f;
  m.at(0, 1) = 2.0f;
  m.at(1, 0) = 3.0f;
  m.at(1, 1) = 4.0f;
  const std::vector<float> v{1.0f, -1.0f};
  const auto out = matvec(m, v);
  EXPECT_FLOAT_EQ(out[0], -1.0f);
  EXPECT_FLOAT_EQ(out[1], -1.0f);
}

TEST(VecOps, DotAndNorm) {
  const std::vector<float> a{3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
}

TEST(VecOps, CosineSimilarityProperties) {
  Rng rng(3);
  const auto v = rng.unit_vector(16);
  EXPECT_NEAR(cosine_similarity(v, v), 1.0, 1e-6);
  std::vector<float> neg(v.begin(), v.end());
  scale_in_place(neg, -2.0f);
  EXPECT_NEAR(cosine_similarity(v, neg), -1.0, 1e-6);
  // Scale invariance: the property §III-B relies on.
  std::vector<float> scaled(v.begin(), v.end());
  scale_in_place(scaled, 42.0f);
  EXPECT_NEAR(cosine_similarity(v, scaled), 1.0, 1e-6);
}

TEST(VecOps, CosineOfZeroVectorIsZero) {
  const std::vector<float> z(4, 0.0f);
  const std::vector<float> v{1.0f, 0.0f, 0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(cosine_similarity(z, v), 0.0);
}

TEST(VecOps, SemanticDistanceRange) {
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const auto a = rng.unit_vector(8);
    const auto b = rng.unit_vector(8);
    const double d = semantic_distance(a, b);
    EXPECT_GE(d, 0.0 - 1e-9);
    EXPECT_LE(d, 2.0 + 1e-9);
  }
}

TEST(VecOps, NormalizeHandlesZero) {
  std::vector<float> z(4, 0.0f);
  normalize_in_place(z);
  for (const float x : z) {
    EXPECT_FLOAT_EQ(x, 0.0f);
  }
}

TEST(VecOps, AxpyAndAdd) {
  std::vector<float> y{1.0f, 1.0f};
  const std::vector<float> x{2.0f, 3.0f};
  axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
  add_in_place(y, x);
  EXPECT_FLOAT_EQ(y[0], 7.0f);
}

TEST(Softmax, SumsToOne) {
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};
  softmax_in_place(x);
  double sum = 0.0;
  for (const float p : x) {
    sum += p;
    EXPECT_GT(p, 0.0f);
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(x[3], x[0]);
}

TEST(Softmax, StableUnderLargeValues) {
  std::vector<float> x{1000.0f, 1001.0f};
  softmax_in_place(x);
  EXPECT_NEAR(x[0] + x[1], 1.0, 1e-6);
  EXPECT_FALSE(std::isnan(x[0]));
}

TEST(Softmax, LogSoftmaxConsistent) {
  const std::vector<float> x{0.5f, -1.0f, 2.0f};
  auto probs = x;
  softmax_in_place(probs);
  const auto logp = log_softmax(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::exp(logp[i]), probs[i], 1e-6);
  }
}

TEST(Softmax, EntropyOfUniform) {
  const std::vector<float> u(8, 0.125f);
  EXPECT_NEAR(entropy(u), std::log(8.0), 1e-6);
}

TEST(Softmax, AttentionOutputMatchesFull) {
  Rng rng(5);
  Matrix values(6, 4);
  rng.fill_normal(values.flat(), 0.0, 1.0);
  std::vector<float> scores(6);
  for (auto& s : scores) {
    s = static_cast<float>(rng.normal());
  }
  std::vector<float> probs = scores;
  softmax_in_place(probs);
  std::vector<float> full(4);
  weighted_value_sum(probs, values, full);

  std::vector<Index> all{0, 1, 2, 3, 4, 5};
  std::vector<float> subset(4);
  attention_output(scores, all, values, subset);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(full[static_cast<std::size_t>(i)], subset[static_cast<std::size_t>(i)],
                1e-5);
  }
}

TEST(TopK, OrderAndTies) {
  const std::vector<float> s{1.0f, 3.0f, 3.0f, 2.0f};
  const auto top = top_k_indices(s, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1);  // tie broken by lower index
  EXPECT_EQ(top[1], 2);
  EXPECT_EQ(top[2], 3);
}

TEST(TopK, ClampsK) {
  const std::vector<float> s{1.0f, 2.0f};
  EXPECT_EQ(top_k_indices(s, 10).size(), 2u);
  EXPECT_TRUE(top_k_indices(s, 0).empty());
}

// top_k_indices partitions with nth_element and sorts only the winners;
// the comparator is a strict total order, so its output must equal the
// partial_sort reference exactly — ties, infinities and every k edge case.
TEST(TopK, MatchesPartialSortReference) {
  const auto reference = [](const std::vector<float>& scores, Index k) {
    std::vector<Index> idx(scores.size());
    std::iota(idx.begin(), idx.end(), Index{0});
    const auto greater = [&scores](Index a, Index b) {
      const float sa = scores[static_cast<std::size_t>(a)];
      const float sb = scores[static_cast<std::size_t>(b)];
      return sa != sb ? sa > sb : a < b;
    };
    std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                      idx.end(), greater);
    idx.resize(static_cast<std::size_t>(k));
    return idx;
  };
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(31);
  std::vector<std::vector<float>> cases = {
      {},
      {5.0f},
      {2.0f, 2.0f, 2.0f, 2.0f, 2.0f},
      {-kInf, 1.0f, -kInf, kInf, 0.0f, kInf, -kInf},
      {-kInf, -kInf, -kInf},
  };
  for (const Index n : {17, 300, 2048}) {
    std::vector<float> scores(static_cast<std::size_t>(n));
    for (float& s : scores) {
      // Few distinct levels: most scores tie with many others.
      s = static_cast<float>(rng.uniform_int(0, 9));
    }
    scores[static_cast<std::size_t>(n / 2)] = -kInf;
    scores[static_cast<std::size_t>(n / 3)] = kInf;
    cases.push_back(scores);
    for (float& s : scores) {
      s = static_cast<float>(rng.normal());
    }
    cases.push_back(scores);
  }
  for (const auto& scores : cases) {
    const auto n = static_cast<Index>(scores.size());
    for (const Index k : {Index{0}, Index{1}, n / 2, n - 1, n}) {
      if (k < 0 || k > n) {
        continue;
      }
      EXPECT_EQ(top_k_indices(scores, k), reference(scores, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(TopK, ArgsortBothDirections) {
  const std::vector<float> s{2.0f, 1.0f, 3.0f};
  const auto desc = argsort_descending(s);
  EXPECT_EQ(desc, (std::vector<Index>{2, 0, 1}));
  const auto asc = argsort_ascending(s);
  EXPECT_EQ(asc, (std::vector<Index>{1, 0, 2}));
}

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    const double x = rng.normal();
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
}

}  // namespace
}  // namespace ckv
