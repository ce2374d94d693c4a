// Dense row-major float tensor.
//
// This is the numeric substrate for the NN stack (src/nn), the embedding
// algorithms (src/embed) and k-means (src/cluster). It is deliberately small:
// contiguous float storage, shape arithmetic, elementwise ops, and one
// register-blocked float GEMM (gemm.cpp) under matmul, nn::Linear and
// nn::Conv2d. Layers that need structure (conv, pooling) index into the flat
// storage themselves.
//
// The GEMM's fan-out rule (util/thread_pool.hpp): a product of at least
// kGemmParallelFlops runs as row chunks on util::ThreadPool::global(),
// unless the calling thread runs a task of a multi-worker pool (a service
// worker, an outer parallel_for chunk); there, and for every smaller
// product, it runs inline. Each element of C is one fixed-order sum over k,
// so the result is bitwise the same inline or split, for any m, row, pool
// size or accumulate mode.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace fairdms::tensor {

class Tensor {
 public:
  Tensor() = default;

  /// Allocates zero-initialized storage of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape)
      : Tensor(std::vector<std::size_t>(shape)) {}

  // --- factories -----------------------------------------------------------
  static Tensor zeros(std::vector<std::size_t> shape);
  static Tensor full(std::vector<std::size_t> shape, float value);
  /// N(0, stddev) entries from `rng`.
  static Tensor randn(std::vector<std::size_t> shape, util::Rng& rng,
                      float stddev = 1.0f);
  /// U(lo, hi) entries from `rng`.
  static Tensor rand_uniform(std::vector<std::size_t> shape, util::Rng& rng,
                             float lo, float hi);
  static Tensor from_vector(std::vector<std::size_t> shape,
                            std::vector<float> values);

  // --- shape ---------------------------------------------------------------
  [[nodiscard]] const std::vector<std::size_t>& shape() const {
    return shape_;
  }
  [[nodiscard]] std::size_t dim(std::size_t axis) const;
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] std::string shape_str() const;

  /// A copy of the data under a new shape (storage is never shared between
  /// tensors); the total element count must match.
  [[nodiscard]] Tensor reshaped(std::vector<std::size_t> new_shape) const;

  // --- element access ------------------------------------------------------
  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::span<float> flat() { return data_; }
  [[nodiscard]] std::span<const float> flat() const { return data_; }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D accessors (checked rank in debug paths only via at()).
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  // --- elementwise in-place ops -------------------------------------------
  Tensor& add_(const Tensor& other);
  Tensor& sub_(const Tensor& other);
  Tensor& mul_(const Tensor& other);
  Tensor& scale_(float k);
  Tensor& fill_(float value);
  /// this += k * other  (AXPY).
  Tensor& axpy_(float k, const Tensor& other);

  // --- elementwise out-of-place -------------------------------------------
  [[nodiscard]] Tensor add(const Tensor& other) const;
  [[nodiscard]] Tensor sub(const Tensor& other) const;
  [[nodiscard]] Tensor mul(const Tensor& other) const;
  [[nodiscard]] Tensor scaled(float k) const;

  // --- reductions ----------------------------------------------------------
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] float max_abs() const;
  /// L2 norm of the flattened tensor.
  [[nodiscard]] double norm() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// Products of at least this many floating-point operations (2·m·n·k) may
/// fan out over the global pool; smaller ones run inline on the caller.
inline constexpr std::size_t kGemmParallelFlops = std::size_t{1} << 21;

/// The fan-out rule for float kernels: true when `flops` reach
/// kGemmParallelFlops and the calling thread is not running a task of a
/// multi-worker pool (util::ThreadPool::in_parallel_task).
[[nodiscard]] bool may_fan_out(std::size_t flops);

/// C[m, n] = op(A) · op(B), or C += op(A) · op(B) with `accumulate`, over
/// dense row-major storage. op(A) is [m, k]: A is stored [m, k], or [k, m]
/// with `trans_a`. op(B) is [k, n]: B is stored [k, n], or [n, k] with
/// `trans_b`. Each element is one sum over k in an order fixed by the
/// transpose flags alone, added to C only at the end.
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          bool trans_a, const float* b, bool trans_b, float* c,
          bool accumulate);

/// C = op(A) * op(B) where op is optional transpose. Shapes (after op):
/// A: [M, K], B: [K, N] -> C: [M, N]. Runs on gemm.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// Dot product of two equally sized tensors (flattened).
double dot(const Tensor& a, const Tensor& b);

/// Squared Euclidean distance between two equally shaped tensors.
double squared_distance(const Tensor& a, const Tensor& b);

/// Cosine similarity of flattened tensors; 0 when either is all-zero.
double cosine_similarity(const Tensor& a, const Tensor& b);

}  // namespace fairdms::tensor
