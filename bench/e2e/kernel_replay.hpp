// Stage-by-stage replay of TabularPredictor::forward_block_into from outside
// the library, for the traced run's tabular per-layer metrics.
//
// The replay calls the same public kernels in the same order on the same
// inputs (each linear kernel's query_into, each attention head's
// query_batch_into, LnParams::apply_into, SigmoidLut::apply_batch) and
// re-implements only the glue loops (positional add, residual adds, ReLU,
// mean pool) with identical arithmetic, so its probabilities must equal
// forward_block_into's bit for bit. A replay that drifts is a failed run:
// its stage table would describe some other computation.
//
// Stage boundaries are timestamped with the TSC where available (a few ns
// per read, subtracted using a calibrated per-read cost); the replay's
// total is reported next to the untimed forward_block_into cost so the
// residual instrumentation cost stays visible.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "nn/tensor.hpp"
#include "tabular/tabular_predictor.hpp"
#include "trace/preprocess.hpp"
#include "tracer.hpp"

namespace dart::e2e {

/// History windows as the DART adapter sees them: T (block, pc) pairs per
/// window, oldest first, plus their segmented features.
struct Windows {
  std::size_t t_len = 0;
  std::vector<std::uint64_t> blocks, pcs;  ///< [count, T] raw history
  std::vector<float> addr, pc;             ///< [count, T, S] segmented features

  std::size_t count() const { return t_len == 0 ? 0 : blocks.size() / t_len; }
};

/// Segments every raw window into features, exactly as the adapter and the
/// serving load generator do. Returns the time spent, in ns.
inline std::uint64_t segment_windows(Windows& w, const trace::PreprocessOptions& prep) {
  const std::size_t n = w.count(), t_len = w.t_len;
  w.addr.assign(n * t_len * prep.addr_segments, 0.0f);
  w.pc.assign(n * t_len * prep.pc_segments, 0.0f);
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n * t_len; ++i) {
    trace::segment_value(w.blocks[i], prep.addr_segments, prep.segment_bits,
                         w.addr.data() + i * prep.addr_segments);
    trace::segment_value(w.pcs[i] >> 2, prep.pc_segments, prep.segment_bits,
                         w.pc.data() + i * prep.pc_segments);
  }
  return now_ns() - t0;
}

enum Stage : std::size_t {
  kEmbed, kQkv, kAttention, kOutProj, kFfnHidden, kFfnOut, kHead, kLayerNorm, kSigmoid, kGlue,
  kStageCount
};
inline constexpr const char* kStageNames[kStageCount] = {
    "embed", "qkv", "attention", "out_proj", "ffn_hidden",
    "ffn_out", "head", "layernorm", "sigmoid", "glue"};

/// Per-query costs of one block size, all in ns per sample.
struct ReplayResult {
  std::size_t block = 0;
  std::size_t queries = 0;
  double stage_ns[kStageCount] = {};
  double encode_ns = 0.0;     ///< linear kernels: encode_batch
  double aggregate_ns = 0.0;  ///< linear kernels: query_into minus encode_batch
  double replay_ns = 0.0;     ///< sum of stages
  double query_ns = 0.0;      ///< forward_block_into, timed as a whole
  std::size_t mismatches = 0; ///< samples whose replayed probabilities differ

  double attention_share() const {
    return replay_ns > 0.0 ? stage_ns[kAttention] / replay_ns : 0.0;
  }
};

/// Table lookups and table bytes read per query, computed from the kernel
/// shapes (not measured).
struct LookupCount {
  double lookups = 0.0;
  double bytes = 0.0;
};

inline LookupCount count_lookups(const tabular::TabularPredictor& p) {
  const nn::ModelConfig& a = p.arch();
  LookupCount lc;
  auto linear = [&](const tabular::LinearKernel& k) {
    const double rows = static_cast<double>(a.seq_len);
    lc.lookups += rows * static_cast<double>(k.num_subspaces());
    lc.bytes += rows * static_cast<double>(k.num_subspaces() * k.out_dim() * sizeof(float));
  };
  linear(*p.addr_kernel);
  linear(*p.pc_kernel);
  for (const auto& layer : p.layers) {
    linear(*layer.qkv);
    for (const auto& h : layer.heads) {
      const double t = static_cast<double>(h->seq_len());
      const double scalar = static_cast<double>(h->config().ck) * t * t +
                            static_cast<double>(h->config().ct) * t *
                                static_cast<double>(h->head_dim());
      lc.lookups += scalar;
      lc.bytes += scalar * sizeof(float);
    }
    linear(*layer.out_proj);
    linear(*layer.ffn_hidden);
    linear(*layer.ffn_out);
  }
  linear(*p.head_kernel);
  lc.lookups += static_cast<double>(a.out_dim);  // sigmoid LUT
  lc.bytes += static_cast<double>(a.out_dim * sizeof(float));
  return lc;
}

/// Low-overhead boundary timestamps: TSC ticks calibrated against the
/// steady clock, or the steady clock itself off x86.
class StageClock {
 public:
  StageClock() {
    const std::uint64_t n0 = now_ns(), c0 = read();
    while (now_ns() - n0 < 20'000'000) {
    }
    const std::uint64_t n1 = now_ns(), c1 = read();
    ticks_per_ns_ = static_cast<double>(c1 - c0) / static_cast<double>(n1 - n0);
    std::vector<std::uint64_t> gaps(4096);
    for (auto& g : gaps) {
      const std::uint64_t a = read();
      g = read() - a;
    }
    read_cost_ = static_cast<double>(quantile(gaps, 0.5));
  }

  static std::uint64_t read() {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return now_ns();
#endif
  }
  double to_ns(double ticks) const { return ticks / ticks_per_ns_; }
  /// Ticks one boundary read adds to the interval it closes.
  double read_cost() const { return read_cost_; }

 private:
  double ticks_per_ns_ = 1.0;
  double read_cost_ = 0.0;
};

class KernelReplay {
 public:
  KernelReplay(const tabular::TabularPredictor& p, const StageClock& clock, const Windows& w)
      : p_(p), clock_(clock), w_(w), ws_(p.tabular_arch()) {}

  /// Replays every full block of `n` windows, `reps` times. Each rep also
  /// times forward_block_into over the same blocks back to back (one clock
  /// pair per pass, nothing inside) and, when `wrapper_ns` is given, the
  /// extra cost of the Tensor forward() the DART adapter calls: each window
  /// is timed through forward() right after forward_block_into, so drift
  /// and clock cost cancel in the difference. Times are the fastest rep
  /// (interference from other processes only slows a rep down); the
  /// wrapper difference is the median rep. `tracer` (optional) receives one
  /// span per replayed query and per stage.
  ReplayResult run(std::size_t n, int reps, Tracer* tracer, double* wrapper_ns = nullptr) {
    const nn::ModelConfig& a = p_.arch();
    const std::size_t blocks = w_.count() / n;
    const std::size_t sa = a.seq_len * a.addr_dim, sp = a.seq_len * a.pc_dim;
    ReplayResult r;
    r.block = n;
    r.queries = blocks * n;
    if (blocks == 0) return r;
    size_buffers(n);
    std::vector<float> ref(n * a.out_dim), got(n * a.out_dim);
    std::vector<nn::Tensor> addr_t, pc_t;
    if (wrapper_ns != nullptr) {
      for (std::size_t i = 0; i < w_.count(); ++i) {
        addr_t.emplace_back(std::vector<std::size_t>{1, a.seq_len, a.addr_dim});
        pc_t.emplace_back(std::vector<std::size_t>{1, a.seq_len, a.pc_dim});
        std::copy_n(w_.addr.data() + i * sa, sa, addr_t.back().data());
        std::copy_n(w_.pc.data() + i * sp, sp, pc_t.back().data());
      }
    }

    Tracer::Series* query_series = nullptr;
    Tracer::Series* stage_series[kStageCount] = {};
    const std::string suffix = ".b" + std::to_string(n);
    if (tracer != nullptr) {
      query_series = tracer->series("tabular.query" + suffix);
      for (std::size_t s = 0; s < kStageCount; ++s) {
        stage_series[s] = tracer->series(std::string("tabular.") + kStageNames[s] + suffix);
      }
    }
    const double per_rep = static_cast<double>(r.queries);
    std::vector<double> query, wrapper, encode, linear, stages[kStageCount];
    for (int rep = 0; rep < reps; ++rep) {
      std::uint64_t t0 = now_ns();
      for (std::size_t b = 0; b < blocks; ++b) {
        p_.forward_block_into(w_.addr.data() + b * n * sa, w_.pc.data() + b * n * sp, n,
                              ref.data(), ws_);
      }
      query.push_back(static_cast<double>(now_ns() - t0) / per_rep);
      if (wrapper_ns != nullptr) {
        double extra = 0.0;
        for (std::size_t i = 0; i < addr_t.size(); ++i) {
          const std::uint64_t a = now_ns();
          p_.forward_block_into(w_.addr.data() + i * sa, w_.pc.data() + i * sp, 1, ref.data(), ws_);
          const std::uint64_t b = now_ns();
          p_.forward(addr_t[i], pc_t[i]);
          extra += static_cast<double>(now_ns() - b) - static_cast<double>(b - a);
        }
        wrapper.push_back(extra / static_cast<double>(addr_t.size()));
      }

      std::fill(std::begin(ticks_), std::end(ticks_), 0.0);
      encode_ticks_ = linear_ticks_ = 0.0;
      for (std::size_t b = 0; b < blocks; ++b) {
        const float* addr = w_.addr.data() + b * n * sa;
        const float* pc = w_.pc.data() + b * n * sp;
        laps_.clear();
        replay_block(addr, pc, n, got.data());
        if (rep == 0) {
          p_.forward_block_into(addr, pc, n, ref.data(), ws_);
          for (std::size_t s = 0; s < n; ++s) {
            if (std::memcmp(ref.data() + s * a.out_dim, got.data() + s * a.out_dim,
                            a.out_dim * sizeof(float)) != 0) {
              ++r.mismatches;
            }
          }
        }
        if (query_series != nullptr) record_spans(*tracer, query_series, stage_series, b);
      }
      for (std::size_t s = 0; s < kStageCount; ++s) {
        stages[s].push_back(clock_.to_ns(ticks_[s]) / per_rep);
      }
      encode.push_back(clock_.to_ns(encode_ticks_) / per_rep);
      linear.push_back(clock_.to_ns(linear_ticks_) / per_rep);
    }
    for (std::size_t s = 0; s < kStageCount; ++s) {
      r.stage_ns[s] = quantile(stages[s], 0.0);
      r.replay_ns += r.stage_ns[s];
    }
    r.encode_ns = quantile(encode, 0.0);
    r.aggregate_ns = quantile(linear, 0.0) - r.encode_ns;
    r.query_ns = quantile(query, 0.0);
    if (wrapper_ns != nullptr) *wrapper_ns = quantile(wrapper, 0.5);
    return r;
  }

 private:
  struct Lap {
    Stage stage;
    std::uint64_t start, end;
  };

  void size_buffers(std::size_t n) {
    const nn::ModelConfig& a = p_.arch();
    const std::size_t rows = n * a.seq_len;
    x_.assign(rows * a.dim, 0.0f);
    tmp_.assign(rows * a.dim, 0.0f);
    qkv_.assign(rows * 3 * a.dim, 0.0f);
    concat_.assign(rows * a.dim, 0.0f);
    hidden_.assign(rows * a.ffn_dim, 0.0f);
    per_token_.assign(rows * a.out_dim, 0.0f);
    laps_.reserve(64);
  }

  /// Closes the interval that started at the previous boundary.
  void lap(Stage s) {
    const std::uint64_t t = StageClock::read();
    const double d = static_cast<double>(t - last_) - clock_.read_cost();
    ticks_[s] += d > 0.0 ? d : 0.0;
    laps_.push_back(Lap{s, last_, t});
    last_ = t;
  }

  /// Runs a linear kernel as one stage, then (outside the stage) re-times
  /// its encode_batch calls alone for the encode/aggregate split.
  void linear(Stage s, const tabular::LinearKernel& k, const float* in, std::size_t rows,
              std::size_t in_stride, float* out, std::size_t out_stride) {
    k.query_into(in, rows, in_stride, out, out_stride, ws_);
    const std::uint64_t before = last_;
    lap(s);
    linear_ticks_ += static_cast<double>(last_ - before) - clock_.read_cost();
    const std::size_t sub = k.in_dim() / k.num_subspaces();
    if (codes_.size() < k.num_subspaces() * rows) codes_.resize(k.num_subspaces() * rows);
    const std::uint64_t e0 = StageClock::read();
    for (std::size_t c = 0; c < k.num_subspaces(); ++c) {
      k.encoder(c).encode_batch(in + c * sub, in_stride, rows, codes_.data() + c * rows);
    }
    const std::uint64_t e1 = StageClock::read();
    encode_ticks_ += static_cast<double>(e1 - e0) - clock_.read_cost();
    last_ = StageClock::read();
  }

  /// forward_block_into, stage by stage (tabular_predictor.cpp).
  void replay_block(const float* addr, const float* pc, std::size_t n, float* probs_out) {
    const nn::ModelConfig& a = p_.arch();
    const std::size_t t_len = a.seq_len, d = a.dim, dh = d / a.heads, rows = n * t_len;
    float* x = x_.data();
    float* tmp = tmp_.data();
    last_ = StageClock::read();

    linear(kEmbed, *p_.addr_kernel, addr, rows, a.addr_dim, x, d);
    linear(kEmbed, *p_.pc_kernel, pc, rows, a.pc_dim, tmp, d);
    const float* pos = p_.pos_encoding.data();
    for (std::size_t s = 0; s < n; ++s) {
      float* xs = x + s * t_len * d;
      const float* ts = tmp + s * t_len * d;
      for (std::size_t i = 0; i < t_len * d; ++i) xs[i] += ts[i] + pos[i];
    }
    lap(kGlue);

    for (const auto& layer : p_.layers) {
      float* qkv = qkv_.data();
      linear(kQkv, *layer.qkv, x, rows, d, qkv, 3 * d);
      float* concat = concat_.data();
      for (std::size_t h = 0; h < layer.heads.size(); ++h) {
        layer.heads[h]->query_batch_into(qkv + h * dh, 3 * d, qkv + d + h * dh, 3 * d,
                                         qkv + 2 * d + h * dh, 3 * d, n, concat + h * dh, d,
                                         ws_);
      }
      lap(kAttention);
      linear(kOutProj, *layer.out_proj, concat, rows, d, tmp, d);
      for (std::size_t i = 0; i < rows * d; ++i) tmp[i] += x[i];
      lap(kGlue);
      layer.ln1.apply_into(tmp, x, rows);
      lap(kLayerNorm);
      float* hidden = hidden_.data();
      linear(kFfnHidden, *layer.ffn_hidden, x, rows, d, hidden, a.ffn_dim);
      for (std::size_t i = 0; i < rows * a.ffn_dim; ++i) {
        hidden[i] = hidden[i] > 0.0f ? hidden[i] : 0.0f;
      }
      lap(kGlue);
      linear(kFfnOut, *layer.ffn_out, hidden, rows, a.ffn_dim, tmp, d);
      for (std::size_t i = 0; i < rows * d; ++i) tmp[i] += x[i];
      lap(kGlue);
      layer.ln2.apply_into(tmp, x, rows);
      lap(kLayerNorm);
    }

    p_.final_ln.apply_into(x, x, rows);
    lap(kLayerNorm);
    const std::size_t out_d = a.out_dim;
    float* per_token = per_token_.data();
    linear(kHead, *p_.head_kernel, x, rows, d, per_token, out_d);
    // Mean pool for every sample, then the sigmoid LUT for every sample:
    // per-sample work is independent, so this grouping changes no value.
    const float inv_t = 1.0f / static_cast<float>(t_len);
    for (std::size_t s = 0; s < n; ++s) {
      float* probs = probs_out + s * out_d;
      const float* pt = per_token + s * t_len * out_d;
      for (std::size_t j = 0; j < out_d; ++j) probs[j] = 0.0f;
      for (std::size_t t = 0; t < t_len; ++t) {
        const float* row = pt + t * out_d;
        for (std::size_t j = 0; j < out_d; ++j) probs[j] += row[j] * inv_t;
      }
    }
    lap(kGlue);
    for (std::size_t s = 0; s < n; ++s) {
      p_.sigmoid_lut.apply_batch(probs_out + s * out_d, out_d, probs_out + s * out_d);
    }
    lap(kSigmoid);
  }

  void record_spans(Tracer& tracer, Tracer::Series* query_series,
                    Tracer::Series* const* stage_series, std::size_t request) const {
    if (laps_.empty()) return;
    auto ns = [this](std::uint64_t t) {
      return static_cast<std::uint64_t>(clock_.to_ns(static_cast<double>(t)));
    };
    const Tracer::Ref q = tracer.open(query_series);
    for (const Lap& l : laps_) {
      tracer.record(stage_series[l.stage], q, request, ns(l.start), ns(l.end));
    }
    tracer.record(q, Tracer::Ref{}, request, ns(laps_.front().start), ns(laps_.back().end));
  }

  const tabular::TabularPredictor& p_;
  const StageClock& clock_;
  const Windows& w_;
  tabular::InferenceWorkspace ws_;
  std::vector<float> x_, tmp_, qkv_, concat_, hidden_, per_token_;
  std::vector<std::uint32_t> codes_;
  std::vector<Lap> laps_;
  std::uint64_t last_ = 0;
  double ticks_[kStageCount] = {};
  double encode_ticks_ = 0.0, linear_ticks_ = 0.0;
};

}  // namespace dart::e2e
