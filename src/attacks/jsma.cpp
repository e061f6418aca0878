#include "attacks/jsma.hpp"

#include <cmath>
#include <vector>

namespace gea::attacks {

std::vector<double> Jsma::craft(ml::DifferentiableClassifier& clf,
                                const std::vector<double>& x,
                                std::size_t target) {
  const std::size_t dim = clf.input_dim();
  const std::size_t classes = clf.num_classes();
  const double theta = cfg_.theta;
  const bool increasing = theta > 0.0;

  std::vector<double> adv = x;
  std::vector<bool> saturated(dim, false);
  const auto max_changed =
      static_cast<std::size_t>(cfg_.gamma * static_cast<double>(dim));
  // Each step perturbs a pair of features.
  const std::size_t max_steps = (max_changed + 1) / 2;

  for (std::size_t step = 0; step < max_steps; ++step) {
    if (clf.predict(adv) == target) break;

    // Jacobian rows: d logit_k / d x.
    std::vector<std::vector<double>> jac(classes);
    for (std::size_t k = 0; k < classes; ++k) jac[k] = clf.grad_logit(adv, k);

    // alpha_i = dZ_t/dx_i, beta_i = sum_{k != t} dZ_k/dx_i.
    std::vector<double> alpha(dim), beta(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      alpha[i] = jac[target][i];
      double b = 0.0;
      for (std::size_t k = 0; k < classes; ++k) {
        if (k != target) b += jac[k][i];
      }
      beta[i] = b;
    }

    auto usable = [&](std::size_t i) {
      if (saturated[i]) return false;
      return increasing ? adv[i] < 1.0 - 1e-9 : adv[i] > 1e-9;
    };

    // Best pair by the Papernot saliency criterion:
    // maximize -(alpha_p + alpha_q)(beta_p + beta_q)
    // subject to alpha_p + alpha_q > 0 and beta_p + beta_q < 0.
    double best_score = 0.0;
    std::ptrdiff_t bp = -1, bq = -1;
    for (std::size_t p = 0; p < dim; ++p) {
      if (!usable(p)) continue;
      for (std::size_t q = p + 1; q < dim; ++q) {
        if (!usable(q)) continue;
        const double a = alpha[p] + alpha[q];
        const double b = beta[p] + beta[q];
        if (a <= 0.0 || b >= 0.0) continue;
        const double score = -a * b;
        if (score > best_score) {
          best_score = score;
          bp = static_cast<std::ptrdiff_t>(p);
          bq = static_cast<std::ptrdiff_t>(q);
        }
      }
    }
    if (bp < 0) {
      // Relaxed fallback (standard in practice): the single feature with
      // the largest positive pull toward the target.
      double best = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        if (!usable(i)) continue;
        const double pull = alpha[i] - beta[i];
        if (pull > best) {
          best = pull;
          bp = static_cast<std::ptrdiff_t>(i);
        }
      }
      if (bp < 0) break;  // nothing helps; give up
    }

    auto bump = [&](std::ptrdiff_t idx) {
      if (idx < 0) return;
      auto& v = adv[static_cast<std::size_t>(idx)];
      v += theta;
      if (v >= 1.0) {
        v = 1.0;
        saturated[static_cast<std::size_t>(idx)] = true;
      }
      if (v <= 0.0) {
        v = 0.0;
        saturated[static_cast<std::size_t>(idx)] = true;
      }
    };
    bump(bp);
    bump(bq);
  }
  // Features JSMA never touched keep their input value, which the scaler
  // can put outside the box for rows unlike the training data.
  detail::clamp01(adv);
  return adv;
}

}  // namespace gea::attacks
