#include "ml/activations.hpp"

#include <sstream>
#include <stdexcept>

namespace gea::ml {

Tensor ReLU::forward(const Tensor& x, bool /*training*/) {
  Tensor y = x;
  mask_.assign(x.size(), false);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] > 0.0f) {
      mask_[i] = true;
    } else {
      y[i] = 0.0f;
    }
  }
  return y;
}

Tensor ReLU::infer(const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] <= 0.0f) y[i] = 0.0f;
  }
  return y;
}

Tensor ReLU::backward_input(const Tensor& grad_out) {
  if (grad_out.size() != mask_.size()) {
    throw std::invalid_argument("ReLU::backward: gradient size mismatch");
  }
  Tensor grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    if (!mask_[i]) grad_in[i] = 0.0f;
  }
  return grad_in;
}

Dropout::Dropout(double p, util::Rng& rng) : p_(p), rng_(&rng) {
  if (p < 0.0 || p >= 1.0) throw std::invalid_argument("Dropout: p must be in [0,1)");
}

Tensor Dropout::forward(const Tensor& x, bool training) {
  last_training_ = training;
  if (!training || p_ == 0.0) return x;
  Tensor y = x;
  mask_.assign(x.size(), 0.0f);
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (!rng_->chance(p_)) mask_[i] = keep_scale;
    y[i] *= mask_[i];
  }
  return y;
}

Tensor Dropout::backward_input(const Tensor& grad_out) {
  if (!last_training_ || p_ == 0.0) return grad_out;
  if (grad_out.size() != mask_.size()) {
    throw std::invalid_argument("Dropout::backward: gradient size mismatch");
  }
  Tensor grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.size(); ++i) grad_in[i] *= mask_[i];
  return grad_in;
}

std::string Dropout::describe() const {
  std::ostringstream ss;
  ss << "Dropout(p=" << p_ << ")";
  return ss.str();
}

Tensor Flatten::forward(const Tensor& x, bool /*training*/) {
  if (x.rank() < 2) {
    throw std::invalid_argument("Flatten::forward: expected rank>=2, got " +
                                x.shape_string());
  }
  in_shape_ = x.shape();
  Tensor y = x;
  std::size_t rest = 1;
  for (std::size_t i = 1; i < in_shape_.size(); ++i) rest *= in_shape_[i];
  y.reshape({in_shape_[0], rest});
  return y;
}

Tensor Flatten::infer(const Tensor& x) {
  if (x.rank() < 2) {
    throw std::invalid_argument("Flatten::infer: expected rank>=2, got " +
                                x.shape_string());
  }
  Tensor y = x;
  std::size_t rest = 1;
  for (std::size_t i = 1; i < x.rank(); ++i) rest *= x.dim(i);
  y.reshape({x.dim(0), rest});
  return y;
}

Tensor Flatten::backward_input(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  grad_in.reshape(in_shape_);
  return grad_in;
}

}  // namespace gea::ml
