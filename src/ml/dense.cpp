#include "ml/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "kernels/conv.hpp"

namespace gea::ml {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      w_(in_features * out_features, 0.0f),
      b_(out_features, 0.0f),
      gw_(w_.size(), 0.0f),
      gb_(b_.size(), 0.0f) {}

void Dense::init(util::Rng& rng) {
  // He initialization (ReLU follows every dense layer but the head; the
  // head's logits tolerate it fine).
  const double scale = std::sqrt(2.0 / static_cast<double>(in_));
  for (auto& w : w_) w = static_cast<float>(rng.normal(0.0, scale));
  for (auto& b : b_) b = 0.0f;
  pack_.reset();
}

const kernels::PackedB* Dense::packed_wt(std::size_t n) {
  return lease_.use_count() == 1 ? pack_.forward(n, in_, out_, w_.data())
                                 : nullptr;
}

const kernels::PackedB* Dense::packed_w(std::size_t n) {
  return lease_.use_count() == 1 ? pack_.input_grad(n, in_, out_, w_.data())
                                 : nullptr;
}

Tensor Dense::apply(const Tensor& x, const char* what) {
  if (x.rank() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument(std::string(what) + ": expected (N, " +
                                std::to_string(in_) + "), got " +
                                x.shape_string());
  }
  const std::size_t n = x.dim(0);
  Tensor y({n, out_});
  kernels::dense_forward(n, in_, out_, x.data(), w_.data(), b_.data(),
                         y.data(), packed_wt(n));
  return y;
}

Tensor Dense::forward(const Tensor& x, bool /*training*/) {
  Tensor y = apply(x, "Dense::forward");
  last_input_ = x;
  return y;
}

Tensor Dense::infer(const Tensor& x) { return apply(x, "Dense::infer"); }

void Dense::check_grad(const Tensor& grad_out) const {
  if (grad_out.rank() != 2 || grad_out.dim(1) != out_ ||
      grad_out.dim(0) != last_input_.dim(0)) {
    throw std::invalid_argument("Dense::backward: bad gradient shape " +
                                grad_out.shape_string());
  }
}

void Dense::accumulate_param_grads(const Tensor& grad_out) {
  check_grad(grad_out);
  kernels::dense_param_grads(grad_out.dim(0), in_, out_, last_input_.data(),
                             grad_out.data(), gw_.data(), gb_.data());
}

Tensor Dense::backward_input(const Tensor& grad_out) {
  check_grad(grad_out);
  const std::size_t n = grad_out.dim(0);
  Tensor grad_in({n, in_});
  kernels::dense_input_grad(n, in_, out_, w_.data(), grad_out.data(),
                            grad_in.data(), packed_w(n));
  return grad_in;
}

std::vector<Param> Dense::params() {
  pack_.reset();
  return {{&w_, &gw_, "dense.w", lease_}, {&b_, &gb_, "dense.b", lease_}};
}

std::string Dense::describe() const {
  return "Dense(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

LayerPtr Dense::clone() const {
  auto c = std::make_unique<Dense>(in_, out_);
  c->w_ = w_;
  c->b_ = b_;
  return c;
}

}  // namespace gea::ml
