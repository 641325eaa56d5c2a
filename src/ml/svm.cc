#include "ml/svm.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rng.h"

namespace reds::ml {

namespace {

double SquaredDistance(const double* a, const double* b, int m) {
  double s = 0.0;
  for (int j = 0; j < m; ++j) {
    const double diff = a[j] - b[j];
    s += diff * diff;
  }
  return s;
}

// Median pairwise squared distance on a subsample ("sigest"-style heuristic).
double MedianHeuristicGamma(const Dataset& d, Rng* rng) {
  const int n = d.num_rows();
  const int pairs = std::min(500, n * (n - 1) / 2);
  if (pairs <= 0) return 1.0;
  std::vector<double> dist;
  dist.reserve(static_cast<size_t>(pairs));
  for (int k = 0; k < pairs; ++k) {
    const int i = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(n)));
    int j = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(n)));
    if (j == i) j = (j + 1) % n;
    dist.push_back(SquaredDistance(d.row(i), d.row(j), d.num_cols()));
  }
  std::nth_element(dist.begin(), dist.begin() + dist.size() / 2, dist.end());
  const double med = dist[dist.size() / 2];
  return med > 0.0 ? 1.0 / med : 1.0;
}

}  // namespace

double SvmRbf::Kernel(const double* a, const double* b) const {
  return std::exp(-gamma_ * SquaredDistance(a, b, num_features_));
}

void SvmRbf::Fit(const Dataset& d, uint64_t seed) {
  const int n = d.num_rows();
  assert(n > 0);
  num_features_ = d.num_cols();
  Rng rng(DeriveSeed(seed, 0x73766dULL));
  gamma_ = config_.gamma > 0.0 ? config_.gamma : MedianHeuristicGamma(d, &rng);

  std::vector<double> y(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) y[static_cast<size_t>(i)] = d.y(i) > 0.5 ? 1.0 : -1.0;

  // Precompute the kernel matrix (N <= a few thousand in this library).
  std::vector<double> kmat(static_cast<size_t>(n) * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double k = std::exp(
          -gamma_ * SquaredDistance(d.row(i), d.row(j), num_features_));
      kmat[static_cast<size_t>(i) * n + j] = k;
      kmat[static_cast<size_t>(j) * n + i] = k;
    }
  }
  auto kernel_at = [&](int i, int j) {
    return kmat[static_cast<size_t>(i) * n + j];
  };

  std::vector<double> alpha(static_cast<size_t>(n), 0.0);
  double b = 0.0;
  // Incrementally maintained decision values f(k); with all alphas zero the
  // decision is just the bias.
  std::vector<double> f(static_cast<size_t>(n), 0.0);

  // Simplified SMO (Platt 1998 as in the CS229 formulation).
  const double c = config_.c;
  int passes = 0, iters = 0;
  while (passes < config_.max_passes && iters < config_.max_iters) {
    int changed = 0;
    for (int i = 0; i < n; ++i) {
      const double ei = f[static_cast<size_t>(i)] - y[static_cast<size_t>(i)];
      const double yi_ei = y[static_cast<size_t>(i)] * ei;
      if ((yi_ei < -config_.tol && alpha[static_cast<size_t>(i)] < c) ||
          (yi_ei > config_.tol && alpha[static_cast<size_t>(i)] > 0.0)) {
        int j = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n - 1)));
        if (j >= i) ++j;
        const double ej = f[static_cast<size_t>(j)] - y[static_cast<size_t>(j)];
        const double ai_old = alpha[static_cast<size_t>(i)];
        const double aj_old = alpha[static_cast<size_t>(j)];
        double lo, hi;
        if (y[static_cast<size_t>(i)] != y[static_cast<size_t>(j)]) {
          lo = std::max(0.0, aj_old - ai_old);
          hi = std::min(c, c + aj_old - ai_old);
        } else {
          lo = std::max(0.0, ai_old + aj_old - c);
          hi = std::min(c, ai_old + aj_old);
        }
        if (lo >= hi) continue;
        const double eta =
            2.0 * kernel_at(i, j) - kernel_at(i, i) - kernel_at(j, j);
        if (eta >= 0.0) continue;
        double aj = aj_old - y[static_cast<size_t>(j)] * (ei - ej) / eta;
        aj = std::clamp(aj, lo, hi);
        if (std::fabs(aj - aj_old) < 1e-6) continue;
        const double ai = ai_old + y[static_cast<size_t>(i)] *
                                       y[static_cast<size_t>(j)] *
                                       (aj_old - aj);
        alpha[static_cast<size_t>(i)] = ai;
        alpha[static_cast<size_t>(j)] = aj;
        const double b1 = b - ei -
                          y[static_cast<size_t>(i)] * (ai - ai_old) * kernel_at(i, i) -
                          y[static_cast<size_t>(j)] * (aj - aj_old) * kernel_at(i, j);
        const double b2 = b - ej -
                          y[static_cast<size_t>(i)] * (ai - ai_old) * kernel_at(i, j) -
                          y[static_cast<size_t>(j)] * (aj - aj_old) * kernel_at(j, j);
        double b_new;
        if (ai > 0.0 && ai < c) {
          b_new = b1;
        } else if (aj > 0.0 && aj < c) {
          b_new = b2;
        } else {
          b_new = 0.5 * (b1 + b2);
        }
        // Propagate the alpha/bias deltas to the cached decisions.
        const double di = y[static_cast<size_t>(i)] * (ai - ai_old);
        const double dj = y[static_cast<size_t>(j)] * (aj - aj_old);
        const double db = b_new - b;
        for (int k = 0; k < n; ++k) {
          f[static_cast<size_t>(k)] +=
              di * kernel_at(i, k) + dj * kernel_at(j, k) + db;
        }
        b = b_new;
        ++changed;
      }
    }
    ++iters;
    passes = changed == 0 ? passes + 1 : 0;
  }

  // Keep only the support vectors.
  sv_x_.clear();
  sv_coef_.clear();
  for (int i = 0; i < n; ++i) {
    if (alpha[static_cast<size_t>(i)] > 1e-12) {
      sv_x_.emplace_back(d.row(i), d.row(i) + num_features_);
      sv_coef_.push_back(alpha[static_cast<size_t>(i)] * y[static_cast<size_t>(i)]);
    }
  }
  bias_ = b;
}

double SvmRbf::Decision(const double* x) const {
  double s = bias_;
  for (size_t i = 0; i < sv_x_.size(); ++i) {
    s += sv_coef_[i] * Kernel(sv_x_[i].data(), x);
  }
  return s;
}

double SvmRbf::PredictProb(const double* x) const {
  // Monotone squashing keeps the bnd=0 decision boundary at probability 0.5.
  return 1.0 / (1.0 + std::exp(-3.0 * Decision(x)));
}

void SvmRbf::PredictBlock(const double* x, int rows, double* out) const {
  constexpr int kChunk = 256;  // rows per pass over the support vectors
  const size_t m = static_cast<size_t>(num_features_);
  // Each chunk is transposed to column-major, so a support vector's
  // squared distances run across rows; every row still sums its features
  // in order, as SquaredDistance does.
  std::vector<double> cols(m * kChunk), dist(kChunk);
  for (int begin = 0; begin < rows; begin += kChunk) {
    const int n = std::min(kChunk, rows - begin);
    const double* xb = x + static_cast<size_t>(begin) * m;
    for (int r = 0; r < n; ++r) {
      for (size_t j = 0; j < m; ++j) {
        cols[j * kChunk + static_cast<size_t>(r)] =
            xb[static_cast<size_t>(r) * m + j];
      }
    }
    double* acc = out + begin;  // decision values, then probabilities
    std::fill(acc, acc + n, bias_);
    for (size_t i = 0; i < sv_x_.size(); ++i) {
      const double* sv = sv_x_[i].data();
      std::fill(dist.begin(), dist.begin() + n, 0.0);
      for (size_t j = 0; j < m; ++j) {
        const double* col = cols.data() + j * kChunk;
        for (int r = 0; r < n; ++r) {
          const double diff = sv[j] - col[r];
          dist[static_cast<size_t>(r)] += diff * diff;
        }
      }
      const double coef = sv_coef_[i];
      for (int r = 0; r < n; ++r) {
        acc[r] += coef * std::exp(-gamma_ * dist[static_cast<size_t>(r)]);
      }
    }
    for (int r = 0; r < n; ++r) {
      acc[r] = 1.0 / (1.0 + std::exp(-3.0 * acc[r]));
    }
  }
}

void SvmRbf::SerializeTo(util::ByteWriter* out) const {
  out->I32(num_features_);
  out->F64(gamma_);
  out->F64(bias_);
  out->U64(sv_x_.size());
  for (const std::vector<double>& sv : sv_x_) out->VecF64(sv);
  out->VecF64(sv_coef_);
}

Status SvmRbf::DeserializeFrom(util::ByteReader* in) {
  num_features_ = in->I32();
  gamma_ = in->F64();
  bias_ = in->F64();
  const uint64_t num_sv = in->U64();
  if (!in->ok() || num_features_ <= 0 || num_sv > in->remaining() / 8) {
    return Status::InvalidArgument("corrupt SVM: header");
  }
  sv_x_.assign(static_cast<size_t>(num_sv), {});
  for (std::vector<double>& sv : sv_x_) {
    sv = in->VecF64();
    if (!in->ok() || sv.size() != static_cast<size_t>(num_features_)) {
      return Status::InvalidArgument("corrupt SVM: support vector");
    }
  }
  sv_coef_ = in->VecF64();
  if (!in->ok() || sv_coef_.size() != sv_x_.size()) {
    return Status::InvalidArgument("corrupt SVM: coefficients");
  }
  return Status::OK();
}

}  // namespace reds::ml
