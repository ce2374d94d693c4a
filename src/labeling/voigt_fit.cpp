#include "labeling/voigt_fit.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fairdms::labeling {

namespace {

constexpr std::size_t kNumParams = 6;
constexpr double kMinSigma = 0.3;

/// Sums of one pass over the patch at parameters p: the squared residual
/// and the Gauss-Newton normal equations J^T J (upper triangle) and J^T r.
struct NormalEquations {
  double ss = 0.0;
  double jtj[kNumParams][kNumParams] = {};
  double jtr[kNumParams] = {};
};

/// Evaluates the isotropic pseudo-Voigt
///   f = b + A (eta L + (1 - eta) G),  G = exp(-r2 / 2),  L = 1 / (1 + r2),
///   r2 = ((x - cx)^2 + (y - cy)^2) / sigma^2
/// at every pixel with its closed-form partials. p must lie in the box
/// (sigma >= kMinSigma, eta in [0, 1]); there every partial is the
/// one-sided derivative, so no Jacobian column is clamped to zero.
NormalEquations evaluate(std::span<const float> patch, std::size_t size,
                         const double* p) {
  const double cx = p[0], cy = p[1], sigma = p[2], eta = p[3], amp = p[4],
               bg = p[5];
  const double inv_s2 = 1.0 / (sigma * sigma);
  NormalEquations ne;
  double j[kNumParams];
  j[5] = 1.0;  // df/db
  for (std::size_t y = 0; y < size; ++y) {
    const double dy = static_cast<double>(y) - cy;
    for (std::size_t x = 0; x < size; ++x) {
      const double dx = static_cast<double>(x) - cx;
      const double r2 = (dx * dx + dy * dy) * inv_s2;
      const double g = std::exp(-0.5 * r2);
      const double l = 1.0 / (1.0 + r2);
      const double mix = eta * l + (1.0 - eta) * g;
      const double r =
          bg + amp * mix - static_cast<double>(patch[y * size + x]);
      // df/dr2, then the center and width partials through r2.
      const double df_dr2 = -amp * (eta * l * l + 0.5 * (1.0 - eta) * g);
      j[0] = -2.0 * df_dr2 * dx * inv_s2;
      j[1] = -2.0 * df_dr2 * dy * inv_s2;
      j[2] = -2.0 * df_dr2 * r2 / sigma;
      j[3] = amp * (l - g);
      j[4] = mix;
      ne.ss += r * r;
      for (std::size_t a = 0; a < kNumParams; ++a) {
        ne.jtr[a] += j[a] * r;
        for (std::size_t b = a; b < kNumParams; ++b) {
          ne.jtj[a][b] += j[a] * j[b];
        }
      }
    }
  }
  return ne;
}

/// Solves (J^T J with its diagonal scaled by 1 + lambda) dp = -J^T r by
/// Gaussian elimination with partial pivoting; false if singular.
bool solve_damped(const NormalEquations& ne, double lambda, double* dp) {
  double aug[kNumParams][kNumParams + 1];
  for (std::size_t a = 0; a < kNumParams; ++a) {
    for (std::size_t b = 0; b < kNumParams; ++b) {
      aug[a][b] = a <= b ? ne.jtj[a][b] : ne.jtj[b][a];
    }
    aug[a][a] *= 1.0 + lambda;
    aug[a][kNumParams] = -ne.jtr[a];
  }
  for (std::size_t col = 0; col < kNumParams; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < kNumParams; ++r) {
      if (std::fabs(aug[r][col]) > std::fabs(aug[pivot][col])) pivot = r;
    }
    if (std::fabs(aug[pivot][col]) < 1e-14) return false;
    if (pivot != col) std::swap(aug[pivot], aug[col]);
    for (std::size_t r = 0; r < kNumParams; ++r) {
      if (r == col) continue;
      const double f = aug[r][col] / aug[col][col];
      for (std::size_t b = col; b <= kNumParams; ++b) {
        aug[r][b] -= f * aug[col][b];
      }
    }
  }
  for (std::size_t a = 0; a < kNumParams; ++a) {
    dp[a] = aug[a][kNumParams] / aug[a][a];
  }
  return true;
}

}  // namespace

FitResult fit_peak(std::span<const float> patch, std::size_t size,
                   const FitConfig& config) {
  FAIRDMS_CHECK(patch.size() == size * size, "fit_peak: bad patch size");
  const double m = static_cast<double>(patch.size());

  // Initial guess: centroid for position, moments for width/amplitude.
  double p[kNumParams];
  datagen::intensity_centroid(patch, size, p[0], p[1]);
  float lo = patch[0], hi = patch[0];
  for (float v : patch) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  p[2] = static_cast<double>(size) / 6.0;            // sigma
  p[3] = 0.5;                                        // eta
  p[4] = std::max(1e-3, static_cast<double>(hi - lo));  // amplitude
  p[5] = static_cast<double>(lo);                    // background

  FitResult result;
  NormalEquations current = evaluate(patch, size, p);
  double lambda = config.initial_lambda;

  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;
    double dp[kNumParams];
    if (!solve_damped(current, lambda, dp)) {
      lambda *= 10.0;
      continue;
    }

    // Project the trial point into the box; the step taken is what remains.
    double p_try[kNumParams];
    for (std::size_t a = 0; a < kNumParams; ++a) p_try[a] = p[a] + dp[a];
    p_try[2] = std::max(kMinSigma, p_try[2]);
    p_try[3] = std::clamp(p_try[3], 0.0, 1.0);
    double step_norm = 0.0;
    for (std::size_t a = 0; a < kNumParams; ++a) {
      step_norm += (p_try[a] - p[a]) * (p_try[a] - p[a]);
    }

    const NormalEquations trial = evaluate(patch, size, p_try);
    if (trial.ss < current.ss) {
      std::copy(p_try, p_try + kNumParams, p);
      current = trial;
      lambda = std::max(1e-9, lambda * 0.3);
      if (std::sqrt(step_norm) < config.tolerance) {
        result.converged = true;
        break;
      }
    } else {
      lambda *= 10.0;
      if (lambda > 1e8) break;  // stuck
    }
  }

  result.center_x = p[0];
  result.center_y = p[1];
  result.sigma = p[2];
  result.eta = p[3];
  result.amplitude = p[4];
  result.background = p[5];
  result.residual = current.ss / m;
  return result;
}

nn::Tensor label_patches(const nn::Tensor& xs, const FitConfig& config,
                         double* elapsed_seconds, double* per_patch_seconds) {
  FAIRDMS_CHECK(xs.rank() == 4 && xs.dim(1) == 1,
                "label_patches expects [N, 1, S, S], got ", xs.shape_str());
  const std::size_t n = xs.dim(0);
  const std::size_t s = xs.dim(2);
  FAIRDMS_CHECK(xs.dim(3) == s, "label_patches expects square patches");
  const double mid = static_cast<double>(s - 1) / 2.0;

  nn::Tensor labels({n, 2});
  const float* px = xs.data();
  float* py = labels.data();
  std::vector<double> fit_seconds(n);
  util::WallTimer timer;
  util::ThreadPool::global().parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const util::WallTimer fit_timer;
          const FitResult fit =
              fit_peak({px + i * s * s, s * s}, s, config);
          fit_seconds[i] = fit_timer.seconds();
          py[i * 2 + 0] =
              static_cast<float>((fit.center_x - mid) / static_cast<double>(s));
          py[i * 2 + 1] =
              static_cast<float>((fit.center_y - mid) / static_cast<double>(s));
        }
      },
      /*min_grain=*/1);
  if (elapsed_seconds != nullptr) *elapsed_seconds = timer.seconds();
  if (per_patch_seconds != nullptr) {
    double total = 0.0;
    for (double t : fit_seconds) total += t;
    *per_patch_seconds =
        total / static_cast<double>(std::max<std::size_t>(1, n));
  }
  return labels;
}

double ClusterCostModel::project_seconds(std::size_t n_patches,
                                         std::size_t cores) const {
  FAIRDMS_CHECK(cores > 0, "project_seconds: zero cores");
  const double total_cpu =
      per_patch_seconds * static_cast<double>(n_patches);
  // Amdahl: serial_fraction of the job cannot use more than one core.
  const double parallel = (1.0 - serial_fraction) * total_cpu /
                          static_cast<double>(cores);
  const double serial = serial_fraction * total_cpu;
  return serial + parallel;
}

}  // namespace fairdms::labeling
