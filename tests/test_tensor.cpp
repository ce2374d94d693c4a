// Unit + property tests for the tensor substrate, anchored by a naive
// reference GEMM.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fairdms {
namespace {

using tensor::Tensor;

Tensor naive_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const std::size_t m = ta ? a.dim(1) : a.dim(0);
  const std::size_t k = ta ? a.dim(0) : a.dim(1);
  const std::size_t n = tb ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double av = ta ? a.at(kk, i) : a.at(i, kk);
        const double bv = tb ? b.at(j, kk) : b.at(kk, j);
        sum += av * bv;
      }
      c.at(i, j) = static_cast<float>(sum);
    }
  }
  return c;
}

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_EQ(t.shape_str(), "[2, 3, 4]");
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FactoriesAndFill) {
  util::Rng rng(1);
  const Tensor f = Tensor::full({3, 3}, 2.5f);
  EXPECT_FLOAT_EQ(f.at(2, 2), 2.5f);
  const Tensor r = Tensor::randn({1000}, rng, 2.0f);
  EXPECT_NEAR(r.mean(), 0.0, 0.25);
  const Tensor u = Tensor::rand_uniform({1000}, rng, -1.0f, 1.0f);
  EXPECT_GE(u.flat()[0], -1.0f);
  const Tensor v = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(v.at(1, 0), 3.0f);
}

TEST(Tensor, ElementwiseOps) {
  const Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  const Tensor b = Tensor::from_vector({2, 2}, {10, 20, 30, 40});
  EXPECT_FLOAT_EQ(a.add(b).at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(b.sub(a).at(1, 1), 36.0f);
  EXPECT_FLOAT_EQ(a.mul(b).at(1, 0), 90.0f);
  EXPECT_FLOAT_EQ(a.scaled(3.0f).at(0, 0), 3.0f);
  Tensor c = a;
  c.axpy_(2.0f, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 21.0f);
}

TEST(Tensor, Reductions) {
  const Tensor a = Tensor::from_vector({4}, {1, -2, 3, -4});
  EXPECT_DOUBLE_EQ(a.sum(), -2.0);
  EXPECT_DOUBLE_EQ(a.mean(), -0.5);
  EXPECT_FLOAT_EQ(a.max_abs(), 4.0f);
  EXPECT_NEAR(a.norm(), std::sqrt(30.0), 1e-6);
}

TEST(Tensor, ReshapePreservesData) {
  const Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b = a.reshaped({3, 2});
  EXPECT_FLOAT_EQ(b.at(2, 1), 6.0f);
  EXPECT_EQ(b.numel(), a.numel());
}

TEST(Tensor, DotDistanceCosine) {
  const Tensor a = Tensor::from_vector({3}, {1, 0, 0});
  const Tensor b = Tensor::from_vector({3}, {0, 1, 0});
  EXPECT_DOUBLE_EQ(tensor::dot(a, b), 0.0);
  EXPECT_DOUBLE_EQ(tensor::squared_distance(a, b), 2.0);
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(a, b), 0.0);
  EXPECT_NEAR(tensor::cosine_similarity(a, a), 1.0, 1e-12);
  const Tensor zero({3});
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(a, zero), 0.0);
}

// Property: the GEMM == naive GEMM for every transpose combination over a
// grid of shapes.
class MatmulProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool, bool>> {
};

TEST_P(MatmulProperty, MatchesNaive) {
  const auto [m, k, n, ta, tb] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n) +
                (ta ? 1 : 0) + (tb ? 2 : 0));
  const auto mu = static_cast<std::size_t>(m);
  const auto ku = static_cast<std::size_t>(k);
  const auto nu = static_cast<std::size_t>(n);
  const Tensor a = Tensor::randn(ta ? std::vector<std::size_t>{ku, mu}
                                    : std::vector<std::size_t>{mu, ku},
                                 rng);
  const Tensor b = Tensor::randn(tb ? std::vector<std::size_t>{nu, ku}
                                    : std::vector<std::size_t>{ku, nu},
                                 rng);
  const Tensor fast = tensor::matmul(a, b, ta, tb);
  const Tensor ref = naive_matmul(a, b, ta, tb);
  ASSERT_EQ(fast.shape(), ref.shape());
  for (std::size_t i = 0; i < fast.numel(); ++i) {
    EXPECT_NEAR(fast[i], ref[i], 1e-3f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulProperty,
    ::testing::Combine(::testing::Values(1, 3, 17, 64),
                       ::testing::Values(1, 5, 32),
                       ::testing::Values(1, 7, 48),
                       ::testing::Bool(), ::testing::Bool()));

// Sizes on both sides of every tile edge: 4-row/8-column NN tiles, 2-row/
// 4-column NT tiles, the 4-wide k lanes, and the sizes the layers run.
INSTANTIATE_TEST_SUITE_P(
    TileEdges, MatmulProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8, 17, 33),
                       ::testing::Values(1, 3, 4, 7, 225, 1936),
                       ::testing::Values(1, 5, 8, 9, 64, 128),
                       ::testing::Bool(), ::testing::Bool()));

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// Row i of op(A)·op(B) has the same bits as the product of row i alone, in
// plain and in accumulate mode: an embedding does not depend on the batch
// it was computed in.
TEST(Matmul, RowsAreBitwiseInvariant) {
  const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes =
      {{33, 225, 9}, {17, 1936, 64}, {8, 7, 128}};
  util::Rng rng(77);
  for (const auto& [m, k, n] : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        SCOPED_TRACE(::testing::Message() << m << "x" << k << "x" << n
                                          << " ta=" << ta << " tb=" << tb);
        const Tensor a = ta ? Tensor::randn({k, m}, rng)
                            : Tensor::randn({m, k}, rng);
        const Tensor b = tb ? Tensor::randn({n, k}, rng)
                            : Tensor::randn({k, n}, rng);
        const Tensor c0 = Tensor::randn({m, n}, rng);
        const Tensor c = tensor::matmul(a, b, ta, tb);
        Tensor acc = c0;
        tensor::gemm(m, n, k, a.data(), ta, b.data(), tb, acc.data(),
                     /*accumulate=*/true);
        for (std::size_t i = 0; i < m; ++i) {
          Tensor row = ta ? Tensor({k, 1}) : Tensor({1, k});
          for (std::size_t kk = 0; kk < k; ++kk) {
            row[kk] = ta ? a.at(kk, i) : a.at(i, kk);
          }
          const Tensor ci = tensor::matmul(row, b, ta, tb);
          ASSERT_TRUE(same_bits(ci.data(), c.data() + i * n, n)) << "row " << i;
          std::vector<float> acc_row(c0.data() + i * n, c0.data() + (i + 1) * n);
          tensor::gemm(1, n, k, row.data(), ta, b.data(), tb, acc_row.data(),
                       /*accumulate=*/true);
          ASSERT_TRUE(same_bits(acc_row.data(), acc.data() + i * n, n))
              << "accumulated row " << i;
        }
      }
    }
  }
}

// A product above the fan-out threshold runs as row chunks on the global
// pool from a plain thread and inline inside a task of a multi-worker pool;
// both give the same bits.
TEST(Matmul, PoolAndInlineGiveSameBits) {
  constexpr std::size_t kM = 64, kK = 225, kN = 128;
  static_assert(2 * kM * kN * kK >= tensor::kGemmParallelFlops);
  util::Rng rng(78);
  util::ThreadPool pool(2);
  ASSERT_FALSE(util::ThreadPool::in_parallel_task());
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const Tensor a = ta ? Tensor::randn({kK, kM}, rng)
                          : Tensor::randn({kM, kK}, rng);
      const Tensor b = tb ? Tensor::randn({kN, kK}, rng)
                          : Tensor::randn({kK, kN}, rng);
      const Tensor fanned = tensor::matmul(a, b, ta, tb);
      const Tensor inline_product =
          pool.async([&] {
                EXPECT_TRUE(util::ThreadPool::in_parallel_task());
                return tensor::matmul(a, b, ta, tb);
              })
              .get();
      EXPECT_TRUE(same_bits(fanned.data(), inline_product.data(), kM * kN))
          << "ta=" << ta << " tb=" << tb;
    }
  }
}

TEST(Matmul, IdentityIsNoop) {
  util::Rng rng(9);
  const Tensor a = Tensor::randn({5, 5}, rng);
  Tensor eye({5, 5});
  for (std::size_t i = 0; i < 5; ++i) eye.at(i, i) = 1.0f;
  const Tensor out = tensor::matmul(a, eye);
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(out[i], a[i]);
  }
}

}  // namespace
}  // namespace fairdms
