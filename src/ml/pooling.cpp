#include "ml/pooling.hpp"

#include <stdexcept>

namespace gea::ml {

MaxPool1D::MaxPool1D(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument("MaxPool1D: zero window");
}

Tensor MaxPool1D::forward(const Tensor& x, bool /*training*/) {
  if (x.rank() != 3) {
    throw std::invalid_argument("MaxPool1D::forward: expected rank-3, got " +
                                x.shape_string());
  }
  const std::size_t n = x.dim(0), c = x.dim(1), l = x.dim(2);
  const std::size_t lo = l / window_;
  if (lo == 0) throw std::invalid_argument("MaxPool1D: input shorter than window");
  in_shape_ = x.shape();
  Tensor y({n, c, lo});
  argmax_.assign(y.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* xrow = x.data() + (i * c + ch) * l;
      float* yrow = y.data() + (i * c + ch) * lo;
      std::size_t* arow = argmax_.data() + (i * c + ch) * lo;
      for (std::size_t j = 0; j < lo; ++j) {
        std::size_t best = j * window_;
        for (std::size_t t = 1; t < window_; ++t) {
          const std::size_t idx = j * window_ + t;
          if (xrow[idx] > xrow[best]) best = idx;
        }
        yrow[j] = xrow[best];
        arow[j] = (i * c + ch) * l + best;
      }
    }
  }
  return y;
}

Tensor MaxPool1D::infer(const Tensor& x) {
  if (x.rank() != 3) {
    throw std::invalid_argument("MaxPool1D::infer: expected rank-3, got " +
                                x.shape_string());
  }
  const std::size_t n = x.dim(0), c = x.dim(1), l = x.dim(2);
  const std::size_t lo = l / window_;
  if (lo == 0) throw std::invalid_argument("MaxPool1D: input shorter than window");
  Tensor y({n, c, lo});
  for (std::size_t row = 0; row < n * c; ++row) {
    const float* xrow = x.data() + row * l;
    float* yrow = y.data() + row * lo;
    for (std::size_t j = 0; j < lo; ++j) {
      float best = xrow[j * window_];
      for (std::size_t t = 1; t < window_; ++t) {
        const float v = xrow[j * window_ + t];
        if (v > best) best = v;
      }
      yrow[j] = best;
    }
  }
  return y;
}

Tensor MaxPool1D::backward_input(const Tensor& grad_out) {
  if (grad_out.size() != argmax_.size()) {
    throw std::invalid_argument("MaxPool1D::backward: gradient size mismatch");
  }
  Tensor grad_in(in_shape_);
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_in[argmax_[i]] += grad_out[i];
  }
  return grad_in;
}

std::string MaxPool1D::describe() const {
  return "MaxPool1D(window=" + std::to_string(window_) + ")";
}

}  // namespace gea::ml
