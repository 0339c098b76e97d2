#include "nn/lstm.hpp"

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/ops.hpp"

namespace dart::nn {

Lstm::Lstm(std::size_t in_dim, std::size_t hidden_dim, std::uint64_t seed, std::string name)
    : in_dim_(in_dim), hidden_(hidden_dim) {
  const float bx = std::sqrt(6.0f / static_cast<float>(in_dim + 4 * hidden_dim));
  const float bh = std::sqrt(6.0f / static_cast<float>(hidden_dim + 4 * hidden_dim));
  wx_ = Param(Tensor::rand_uniform({4 * hidden_dim, in_dim}, bx, common::derive_seed(seed, 1)),
              name + ".wx");
  wh_ = Param(Tensor::rand_uniform({4 * hidden_dim, hidden_dim}, bh, common::derive_seed(seed, 2)),
              name + ".wh");
  bias_ = Param(Tensor({4 * hidden_dim}), name + ".bias");
  // Forget-gate bias init to 1 (standard trick for gradient flow).
  for (std::size_t j = hidden_dim; j < 2 * hidden_dim; ++j) bias_.value[j] = 1.0f;
}

Tensor Lstm::forward(const Tensor& x) {
  if (x.ndim() != 3 || x.dim(2) != in_dim_) {
    throw std::invalid_argument("Lstm::forward expects [B,T,Din], got " + x.shape_str());
  }
  const std::size_t b_sz = x.dim(0), t_len = x.dim(1), h = hidden_;
  cached_x_ = x;
  cached_gates_ = Tensor({b_sz, t_len, 4 * h});
  cached_c_ = Tensor({b_sz, t_len, h});
  cached_h_ = Tensor({b_sz, t_len, h});
  cached_tanh_c_ = Tensor({b_sz, t_len, h});

  const float* pwx = wx_.value.data();
  const float* pwh = wh_.value.data();
  const float* pb = bias_.value.data();
  // Recurrence is sequential in T; parallelize over the batch.
  common::parallel_for_each(b_sz, [&](std::size_t b) {
    std::vector<float> h_prev(h, 0.0f), c_prev(h, 0.0f), pre(4 * h);
    for (std::size_t t = 0; t < t_len; ++t) {
      const float* xt = x.data() + (b * t_len + t) * in_dim_;
      for (std::size_t g = 0; g < 4 * h; ++g) {
        float acc = pb[g];
        const float* wxrow = pwx + g * in_dim_;
        for (std::size_t j = 0; j < in_dim_; ++j) acc += wxrow[j] * xt[j];
        const float* whrow = pwh + g * h;
        for (std::size_t j = 0; j < h; ++j) acc += whrow[j] * h_prev[j];
        pre[g] = acc;
      }
      float* gates = cached_gates_.data() + (b * t_len + t) * 4 * h;
      float* ct = cached_c_.data() + (b * t_len + t) * h;
      float* ht = cached_h_.data() + (b * t_len + t) * h;
      float* tct = cached_tanh_c_.data() + (b * t_len + t) * h;
      for (std::size_t j = 0; j < h; ++j) {
        const float ig = ops::sigmoid(pre[j]);
        const float fg = ops::sigmoid(pre[h + j]);
        const float gg = std::tanh(pre[2 * h + j]);
        const float og = ops::sigmoid(pre[3 * h + j]);
        gates[j] = ig;
        gates[h + j] = fg;
        gates[2 * h + j] = gg;
        gates[3 * h + j] = og;
        const float c = fg * c_prev[j] + ig * gg;
        ct[j] = c;
        const float tc = std::tanh(c);
        tct[j] = tc;
        ht[j] = og * tc;
        c_prev[j] = c;
        h_prev[j] = ht[j];
      }
    }
  }, 1);
  return cached_h_;
}

Tensor Lstm::backward(const Tensor& grad_out) {
  const std::size_t b_sz = cached_x_.dim(0), t_len = cached_x_.dim(1), h = hidden_;
  Tensor dx({b_sz, t_len, in_dim_});
  // Parameter gradients are shared across the batch loop; accumulate into
  // per-thread buffers, then reduce. For simplicity (batch sizes are modest)
  // run the batch loop serially and thread only inside heavy ops.
  float* pdwx = wx_.grad.data();
  float* pdwh = wh_.grad.data();
  float* pdb = bias_.grad.data();
  const float* pwx = wx_.value.data();
  const float* pwh = wh_.value.data();

  for (std::size_t b = 0; b < b_sz; ++b) {
    std::vector<float> dh_next(h, 0.0f), dc_next(h, 0.0f), dpre(4 * h);
    for (std::size_t t = t_len; t-- > 0;) {
      const float* gates = cached_gates_.data() + (b * t_len + t) * 4 * h;
      const float* tct = cached_tanh_c_.data() + (b * t_len + t) * h;
      const float* dy = grad_out.data() + (b * t_len + t) * h;
      const float* c_prev =
          t > 0 ? cached_c_.data() + (b * t_len + (t - 1)) * h : nullptr;
      const float* h_prev =
          t > 0 ? cached_h_.data() + (b * t_len + (t - 1)) * h : nullptr;
      for (std::size_t j = 0; j < h; ++j) {
        const float ig = gates[j], fg = gates[h + j], gg = gates[2 * h + j],
                    og = gates[3 * h + j];
        const float dh = dy[j] + dh_next[j];
        const float dc = dh * og * (1.0f - tct[j] * tct[j]) + dc_next[j];
        const float cp = c_prev != nullptr ? c_prev[j] : 0.0f;
        dpre[j] = dc * gg * ig * (1.0f - ig);                  // d pre_i
        dpre[h + j] = dc * cp * fg * (1.0f - fg);              // d pre_f
        dpre[2 * h + j] = dc * ig * (1.0f - gg * gg);          // d pre_g
        dpre[3 * h + j] = dh * tct[j] * og * (1.0f - og);      // d pre_o
        dc_next[j] = dc * fg;
      }
      // Accumulate parameter grads and propagate to x and h_prev.
      const float* xt = cached_x_.data() + (b * t_len + t) * in_dim_;
      float* dxt = dx.data() + (b * t_len + t) * in_dim_;
      std::fill(dh_next.begin(), dh_next.end(), 0.0f);
      for (std::size_t g = 0; g < 4 * h; ++g) {
        const float dg = dpre[g];
        pdb[g] += dg;
        float* dwxrow = pdwx + g * in_dim_;
        for (std::size_t j = 0; j < in_dim_; ++j) dwxrow[j] += dg * xt[j];
        const float* wxrow = pwx + g * in_dim_;
        for (std::size_t j = 0; j < in_dim_; ++j) dxt[j] += dg * wxrow[j];
        if (h_prev != nullptr) {
          float* dwhrow = pdwh + g * h;
          for (std::size_t j = 0; j < h; ++j) dwhrow[j] += dg * h_prev[j];
        }
        const float* whrow = pwh + g * h;
        for (std::size_t j = 0; j < h; ++j) dh_next[j] += dg * whrow[j];
      }
    }
  }
  return dx;
}

// ---------------------------------------------------------------- predictor

LstmPredictor::LstmPredictor(std::size_t addr_dim, std::size_t pc_dim, std::size_t hidden,
                             std::size_t out_dim, std::uint64_t seed)
    : out_dim_(out_dim) {
  addr_embed_ = std::make_unique<Linear>(addr_dim, hidden, common::derive_seed(seed, 1),
                                         "lstm.addr_embed");
  pc_embed_ = std::make_unique<Linear>(pc_dim, hidden, common::derive_seed(seed, 2),
                                       "lstm.pc_embed");
  lstm_ = std::make_unique<Lstm>(hidden, hidden, common::derive_seed(seed, 3));
  head_ = std::make_unique<Linear>(hidden, out_dim, common::derive_seed(seed, 4), "lstm.head");
}

Tensor LstmPredictor::forward(const Tensor& addr, const Tensor& pc) {
  cached_b_ = addr.dim(0);
  cached_t_ = addr.dim(1);
  Tensor x = addr_embed_->forward(addr);
  Tensor xp = pc_embed_->forward(pc);
  x += xp;
  Tensor hseq = lstm_->forward(x);  // [B,T,H]
  // Take the last hidden state.
  const std::size_t h = lstm_->hidden_dim();
  Tensor last({cached_b_, h});
  for (std::size_t b = 0; b < cached_b_; ++b) {
    const float* src = hseq.data() + (b * cached_t_ + (cached_t_ - 1)) * h;
    float* dst = last.row(b);
    for (std::size_t j = 0; j < h; ++j) dst[j] = src[j];
  }
  return head_->forward(last);
}

void LstmPredictor::backward(const Tensor& d_logits) {
  Tensor d_last = head_->backward(d_logits);  // [B,H]
  const std::size_t h = lstm_->hidden_dim();
  Tensor d_hseq({cached_b_, cached_t_, h});
  for (std::size_t b = 0; b < cached_b_; ++b) {
    float* dst = d_hseq.data() + (b * cached_t_ + (cached_t_ - 1)) * h;
    const float* src = d_last.row(b);
    for (std::size_t j = 0; j < h; ++j) dst[j] = src[j];
  }
  Tensor dx = lstm_->backward(d_hseq);
  addr_embed_->backward(dx);
  pc_embed_->backward(dx);
}

std::vector<Param*> LstmPredictor::params() {
  return collect_params({addr_embed_.get(), pc_embed_.get(), lstm_.get(), head_.get()});
}

void LstmPredictor::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::size_t LstmPredictor::num_params() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

}  // namespace dart::nn
