#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/check.hpp"

namespace fairdms::tensor {

namespace {
std::size_t shape_numel(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor Tensor::zeros(std::vector<std::size_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::full(std::vector<std::size_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::randn(std::vector<std::size_t> shape, util::Rng& rng,
                     float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.gaussian()) * stddev;
  }
  return t;
}

Tensor Tensor::rand_uniform(std::vector<std::size_t> shape, util::Rng& rng,
                            float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::from_vector(std::vector<std::size_t> shape,
                           std::vector<float> values) {
  FAIRDMS_CHECK(shape_numel(shape) == values.size(),
                "from_vector: shape/value count mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(values);
  return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
  FAIRDMS_CHECK(axis < shape_.size(), "dim(", axis, ") on rank-",
                shape_.size(), " tensor");
  return shape_[axis];
}

std::string Tensor::shape_str() const {
  std::ostringstream oss;
  oss << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) oss << ", ";
    oss << shape_[i];
  }
  oss << ']';
  return oss.str();
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const {
  FAIRDMS_CHECK(shape_numel(new_shape) == numel(), "reshape ", shape_str(),
                " -> incompatible element count");
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

float& Tensor::at(std::size_t r, std::size_t c) {
  FAIRDMS_CHECK(rank() == 2, "at(r,c) on rank-", rank(), " tensor");
  FAIRDMS_CHECK(r < shape_[0] && c < shape_[1], "at(", r, ",", c,
                ") out of bounds for ", shape_str());
  return data_[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

#define FAIRDMS_TENSOR_BINOP(name, expr)                                \
  Tensor& Tensor::name(const Tensor& other) {                           \
    FAIRDMS_CHECK(numel() == other.numel(), #name ": size mismatch ",   \
                  shape_str(), " vs ", other.shape_str());              \
    float* a = data_.data();                                            \
    const float* b = other.data_.data();                                \
    for (std::size_t i = 0; i < data_.size(); ++i) expr;                \
    return *this;                                                       \
  }

FAIRDMS_TENSOR_BINOP(add_, a[i] += b[i])
FAIRDMS_TENSOR_BINOP(sub_, a[i] -= b[i])
FAIRDMS_TENSOR_BINOP(mul_, a[i] *= b[i])
#undef FAIRDMS_TENSOR_BINOP

Tensor& Tensor::scale_(float k) {
  for (float& v : data_) v *= k;
  return *this;
}

Tensor& Tensor::fill_(float value) {
  std::fill(data_.begin(), data_.end(), value);
  return *this;
}

Tensor& Tensor::axpy_(float k, const Tensor& other) {
  FAIRDMS_CHECK(numel() == other.numel(), "axpy_: size mismatch");
  float* a = data_.data();
  const float* b = other.data_.data();
  for (std::size_t i = 0; i < data_.size(); ++i) a[i] += k * b[i];
  return *this;
}

Tensor Tensor::add(const Tensor& other) const {
  Tensor out = *this;
  return out.add_(other);
}
Tensor Tensor::sub(const Tensor& other) const {
  Tensor out = *this;
  return out.sub_(other);
}
Tensor Tensor::mul(const Tensor& other) const {
  Tensor out = *this;
  return out.mul_(other);
}
Tensor Tensor::scaled(float k) const {
  Tensor out = *this;
  return out.scale_(k);
}

double Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v);
  return s;
}

double Tensor::mean() const {
  return data_.empty() ? 0.0 : sum() / static_cast<double>(data_.size());
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Tensor::norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  FAIRDMS_CHECK(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2 inputs");
  const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::size_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t kb = trans_b ? b.dim(1) : b.dim(0);
  const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
  FAIRDMS_CHECK(k == kb, "matmul inner-dim mismatch: ", a.shape_str(), " x ",
                b.shape_str());

  Tensor c({m, n});
  gemm(m, n, k, a.data(), trans_a, b.data(), trans_b, c.data(),
       /*accumulate=*/false);
  return c;
}

double dot(const Tensor& a, const Tensor& b) {
  FAIRDMS_CHECK(a.numel() == b.numel(), "dot: size mismatch");
  double s = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    s += static_cast<double>(pa[i]) * pb[i];
  }
  return s;
}

double squared_distance(const Tensor& a, const Tensor& b) {
  FAIRDMS_CHECK(a.numel() == b.numel(), "squared_distance: size mismatch");
  double s = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(pa[i]) - pb[i];
    s += d * d;
  }
  return s;
}

double cosine_similarity(const Tensor& a, const Tensor& b) {
  const double na = a.norm();
  const double nb = b.norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

}  // namespace fairdms::tensor
