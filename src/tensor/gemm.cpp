// The float GEMM under matmul, nn::Linear and nn::Conv2d.
//
// Three register-blocked forms, chosen by the transpose flags:
//   NN / TN  C = op(A)·B with B row-major [k, n]: a 4-row x 8-column tile of
//            C held in vector accumulators across all of k; op(A) is read
//            one broadcast scalar at a time, so a transposed A needs no pack.
//   NT       C = A·Bᵀ (nn::Linear::forward's x·Wᵀ): a 2-row x 4-column tile of
//            dot products that reads both operands contiguously along k.
//   TT       A is packed once into [m, k], then runs as NT.
// Every element of C is computed the same way wherever it falls (full tile
// or edge): NN/TN sum sequentially over k, NT sums four k-strided lanes and
// then the k % 4 tail. The products are accumulated from zero and added to
// C only at the end, so the bits never depend on m, the row's position, the
// chunking across threads, or accumulate mode.
#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace fairdms::tensor {

namespace {

// Four floats in one SSE/NEON register (GCC/Clang vector extension; plain
// baseline code, no target flags).
using V4 = float __attribute__((vector_size(16)));

V4 load4(const float* p) {
  V4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, V4 v) { std::memcpy(p, &v, sizeof v); }

void put(float* c, float v, bool accumulate) { *c = accumulate ? *c + v : v; }

void put4(float* c, V4 v, bool accumulate) {
  store4(c, accumulate ? load4(c) + v : v);
}

/// op(A) element (i, kk) sits at a[i * si + kk * sk].
struct Strided {
  const float* a;
  std::size_t si;
  std::size_t sk;
};

/// C[0..R) x [0..8) = op(A)[0..R) · B[:, 0..8).
template <int R>
void nn_tile(std::size_t k, Strided a, const float* b, std::size_t ldb,
             float* c, std::size_t ldc, bool accumulate) {
  V4 acc[R][2] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const V4 b0 = load4(b + kk * ldb);
    const V4 b1 = load4(b + kk * ldb + 4);
    for (int r = 0; r < R; ++r) {
      const float av = a.a[r * a.si + kk * a.sk];
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  for (int r = 0; r < R; ++r) {
    put4(c + r * ldc, acc[r][0], accumulate);
    put4(c + r * ldc + 4, acc[r][1], accumulate);
  }
}

/// One column of C over R rows: the same sequential sum as a tile lane.
template <int R>
void nn_column(std::size_t k, Strided a, const float* b, std::size_t ldb,
               float* c, std::size_t ldc, bool accumulate) {
  float acc[R] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float bv = b[kk * ldb];
    for (int r = 0; r < R; ++r) acc[r] += a.a[r * a.si + kk * a.sk] * bv;
  }
  for (int r = 0; r < R; ++r) put(c + r * ldc, acc[r], accumulate);
}

template <int R>
void nn_panel(std::size_t n, std::size_t k, Strided a, const float* b,
              float* c, bool accumulate) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) nn_tile<R>(k, a, b + j, n, c + j, n, accumulate);
  for (; j < n; ++j) nn_column<R>(k, a, b + j, n, c + j, n, accumulate);
}

/// Rows of C = op(A)·B, four at a time.
void nn_rows(std::size_t m, std::size_t n, std::size_t k, Strided a,
             const float* b, float* c, bool accumulate) {
  for (std::size_t i = 0; i < m; i += 4) {
    const Strided ai{a.a + i * a.si, a.si, a.sk};
    float* ci = c + i * n;
    switch (std::min<std::size_t>(4, m - i)) {
      case 4: nn_panel<4>(n, k, ai, b, ci, accumulate); break;
      case 3: nn_panel<3>(n, k, ai, b, ci, accumulate); break;
      case 2: nn_panel<2>(n, k, ai, b, ci, accumulate); break;
      default: nn_panel<1>(n, k, ai, b, ci, accumulate); break;
    }
  }
}

/// C[0..R) x [0..C) = A[0..R) · B[0..C)ᵀ, both read along contiguous k.
template <int R, int C>
void nt_tile(std::size_t k, const float* a, const float* b, float* c,
             std::size_t ldc, bool accumulate) {
  V4 acc[R][C] = {};
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    V4 av[R];
    V4 bv[C];
    for (int r = 0; r < R; ++r) av[r] = load4(a + r * k + kk);
    for (int j = 0; j < C; ++j) bv[j] = load4(b + j * k + kk);
    for (int r = 0; r < R; ++r) {
      for (int j = 0; j < C; ++j) acc[r][j] += av[r] * bv[j];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int j = 0; j < C; ++j) {
      const V4 v = acc[r][j];
      float s = (v[0] + v[1]) + (v[2] + v[3]);
      for (std::size_t t = kk; t < k; ++t) s += a[r * k + t] * b[j * k + t];
      put(c + r * ldc + j, s, accumulate);
    }
  }
}

template <int R>
void nt_panel(std::size_t n, std::size_t k, const float* a, const float* b,
              float* c, bool accumulate) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    nt_tile<R, 4>(k, a, b + j * k, c + j, n, accumulate);
  }
  switch (n - j) {
    case 3: nt_tile<R, 3>(k, a, b + j * k, c + j, n, accumulate); break;
    case 2: nt_tile<R, 2>(k, a, b + j * k, c + j, n, accumulate); break;
    case 1: nt_tile<R, 1>(k, a, b + j * k, c + j, n, accumulate); break;
    default: break;
  }
}

/// Rows of C = A·Bᵀ, two at a time; A is [m, k], B is [n, k].
void nt_rows(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate) {
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    nt_panel<2>(n, k, a + i * k, b, c + i * n, accumulate);
  }
  if (i < m) nt_panel<1>(n, k, a + i * k, b, c + i * n, accumulate);
}

}  // namespace

bool may_fan_out(std::size_t flops) {
  return flops >= kGemmParallelFlops && !util::ThreadPool::in_parallel_task();
}

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          bool trans_a, const float* b, bool trans_b, float* c,
          bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }
  std::vector<float> packed;
  if (trans_a && trans_b) {  // TT: A [k, m] -> [m, k], then NT
    packed.resize(m * k);
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t i = 0; i < m; ++i) packed[i * k + kk] = a[kk * m + i];
    }
    a = packed.data();
    trans_a = false;
  }
  auto rows = [&](std::size_t begin, std::size_t end) {
    if (trans_b) {
      nt_rows(end - begin, n, k, a + begin * k, b, c + begin * n, accumulate);
    } else {
      const Strided op_a = trans_a ? Strided{a + begin, 1, m}
                                   : Strided{a + begin * k, k, 1};
      nn_rows(end - begin, n, k, op_a, b, c + begin * n, accumulate);
    }
  };
  const std::size_t flops = 2 * m * n * k;
  constexpr std::size_t kRowBlock = 4;
  if (m <= kRowBlock || !may_fan_out(flops)) {
    rows(0, m);
    return;
  }
  // Split by rows of C only, in whole row blocks, with at least half the
  // threshold's work per chunk.
  const std::size_t blocks = (m + kRowBlock - 1) / kRowBlock;
  const std::size_t block_flops = flops / blocks;
  const std::size_t grain =
      std::max<std::size_t>(1, kGemmParallelFlops / 2 / block_flops);
  util::ThreadPool::global().parallel_for(
      blocks,
      [&](std::size_t begin, std::size_t end) {
        rows(begin * kRowBlock, std::min(m, end * kRowBlock));
      },
      grain);
}

}  // namespace fairdms::tensor
