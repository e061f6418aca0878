#include "ml/conv1d.hpp"

#include <cmath>
#include <stdexcept>

#include "kernels/conv.hpp"

namespace gea::ml {

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_size, Padding padding)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      k_(kernel_size),
      padding_(padding),
      w_(out_channels * in_channels * kernel_size, 0.0f),
      b_(out_channels, 0.0f),
      gw_(w_.size(), 0.0f),
      gb_(b_.size(), 0.0f) {
  if (kernel_size == 0 || kernel_size % 2 == 0) {
    throw std::invalid_argument("Conv1D: kernel size must be odd and nonzero");
  }
}

std::size_t Conv1D::output_length(std::size_t input_length) const {
  if (padding_ == Padding::kSame) return input_length;
  if (input_length < k_) {
    throw std::invalid_argument("Conv1D: input shorter than kernel");
  }
  return input_length - k_ + 1;
}

LayerPtr Conv1D::clone() const {
  auto c = std::make_unique<Conv1D>(in_ch_, out_ch_, k_, padding_);
  c->w_ = w_;
  c->b_ = b_;
  return c;
}

void Conv1D::init(util::Rng& rng) {
  const double fan_in = static_cast<double>(in_ch_ * k_);
  const double scale = std::sqrt(2.0 / fan_in);
  for (auto& w : w_) w = static_cast<float>(rng.normal(0.0, scale));
  for (auto& b : b_) b = 0.0f;
  pack_.reset();
}

const kernels::PackedB* Conv1D::packed_wt(std::size_t n) {
  return lease_.use_count() == 1
             ? pack_.forward(n, in_ch_ * k_, out_ch_, w_.data())
             : nullptr;
}

const kernels::PackedB* Conv1D::packed_w(std::size_t n) {
  return lease_.use_count() == 1
             ? pack_.input_grad(n, in_ch_ * k_, out_ch_, w_.data())
             : nullptr;
}

kernels::Conv1DShape Conv1D::shape_for(const Tensor& x) const {
  kernels::Conv1DShape s;
  s.n = x.dim(0);
  s.in_ch = in_ch_;
  s.l_in = x.dim(2);
  s.out_ch = out_ch_;
  s.k = k_;
  s.same = padding_ == Padding::kSame;
  if (!s.same && s.l_in < k_) {
    throw std::invalid_argument("Conv1D: input shorter than kernel");
  }
  return s;
}

Tensor Conv1D::apply(const Tensor& x, const char* what) {
  if (x.rank() != 3 || x.dim(1) != in_ch_) {
    throw std::invalid_argument(std::string(what) + ": expected (N, " +
                                std::to_string(in_ch_) + ", L), got " +
                                x.shape_string());
  }
  const auto s = shape_for(x);
  Tensor y({s.n, out_ch_, s.l_out()});
  kernels::conv1d_forward(s, x.data(), w_.data(), b_.data(), y.data(),
                          packed_wt(s.n));
  return y;
}

Tensor Conv1D::forward(const Tensor& x, bool /*training*/) {
  Tensor y = apply(x, "Conv1D::forward");
  last_input_ = x;
  return y;
}

Tensor Conv1D::infer(const Tensor& x) { return apply(x, "Conv1D::infer"); }

kernels::Conv1DShape Conv1D::grad_shape(const Tensor& grad_out) const {
  const auto s = shape_for(last_input_);
  if (grad_out.rank() != 3 || grad_out.dim(0) != s.n ||
      grad_out.dim(1) != out_ch_ || grad_out.dim(2) != s.l_out()) {
    throw std::invalid_argument("Conv1D::backward: bad gradient shape " +
                                grad_out.shape_string());
  }
  return s;
}

void Conv1D::accumulate_param_grads(const Tensor& grad_out) {
  const auto s = grad_shape(grad_out);
  kernels::conv1d_param_grads(s, last_input_.data(), grad_out.data(),
                              gw_.data(), gb_.data());
}

Tensor Conv1D::backward_input(const Tensor& grad_out) {
  const auto s = grad_shape(grad_out);
  Tensor grad_in({s.n, in_ch_, s.l_in});
  kernels::conv1d_input_grad(s, w_.data(), grad_out.data(), grad_in.data(),
                             packed_w(s.n));
  return grad_in;
}

std::vector<Param> Conv1D::params() {
  pack_.reset();
  return {{&w_, &gw_, "conv1d.w", lease_}, {&b_, &gb_, "conv1d.b", lease_}};
}

std::string Conv1D::describe() const {
  return "Conv1D(" + std::to_string(in_ch_) + "->" + std::to_string(out_ch_) +
         ", k=" + std::to_string(k_) +
         (padding_ == Padding::kSame ? ", same)" : ", valid)");
}

}  // namespace gea::ml
