// Neural / tabular prefetcher adapters (Table IX):
//  * DartPrefetcher       — the paper's contribution: table-hierarchy
//    predictor at the LLC (latency from the Eq. 22 complexity model).
//  * AttentionPrefetcher  — TransFetch-like baseline wrapping the
//    attention NN directly (latency ≈ 4.5K cycles; "-I" ideal = 0).
//  * LstmPrefetcher       — Voyager-like baseline wrapping the LSTM
//    predictor (latency ≈ 27.7K cycles; "-I" ideal = 0).
//
// All adapters share the same mechanics: keep the last T LLC accesses,
// build the segmented addr/PC input of §VI-A, run the predictor, turn
// bitmap bits with probability >= threshold into block addresses
// (current block + delta), strongest bits first.
//
// Latency-bound triggering: each prediction lands L cycles (the prediction
// latency) after its trigger, and a trigger is accepted at most once every
// `initiation_interval` cycles. That interval defaults to 1, a fully
// pipelined predictor; setting it to L (spec parameter `ii=`) models a
// non-pipelined engine with one prediction outstanding. The "-I" ideal
// variants have zero latency and trigger on every access, exactly how the
// paper separates TransFetch/Voyager from TransFetch-I/Voyager-I.
#pragma once

#include <memory>

#include "nn/lstm.hpp"
#include "nn/transformer.hpp"
#include "sim/prefetcher.hpp"
#include "tabular/tabular_predictor.hpp"
#include "trace/preprocess.hpp"

namespace dart::prefetch {

struct NnAdapterOptions {
  trace::PreprocessOptions prep;     ///< must match the training pipeline
  float threshold = 0.5f;            ///< bitmap probability cutoff
  std::size_t degree = 16;           ///< max predictions per trigger
  std::size_t latency = 0;           ///< prediction latency in cycles
  /// Minimum cycles between two inference launches (1 = fully pipelined
  /// predictor, the default; set to `latency` to model a non-pipelined
  /// engine with a single outstanding prediction).
  std::size_t initiation_interval = 1;
  /// Predict on every Nth trigger access (simulation-cost sampling for the
  /// heavyweight NN baselines; predictions within a few accesses are nearly
  /// identical because the history window barely moves).
  std::size_t trigger_sample = 1;
};

/// Shared history-window + bitmap-decoding machinery. Steady-state
/// triggers allocate nothing: the segmented inputs, the probabilities and
/// the fired-bit list are members reused across calls.
class NnPrefetcherBase : public sim::Prefetcher {
 public:
  /// `out_dim` is the wrapped predictor's output width (DO).
  NnPrefetcherBase(const NnAdapterOptions& options, std::size_t out_dim);

  void on_access(std::uint64_t block, std::uint64_t pc, bool hit, std::uint64_t cycle,
                 std::vector<std::uint64_t>& out) final;
  /// No adapter trains on fills, so the simulator skips demand-fill events.
  bool trains_on_fill() const final { return false; }
  std::size_t prediction_latency() const final { return opts_.latency; }

 protected:
  /// Runs the wrapped predictor on one sample's [T, S] segmented inputs
  /// (row-major, contiguous) and writes its DO probabilities to `probs`.
  virtual void predict_into(const float* addr, const float* pc, float* probs) = 0;

  NnAdapterOptions opts_;

 private:
  std::vector<std::uint64_t> hist_blocks_;
  std::vector<std::uint64_t> hist_pcs_;
  std::size_t hist_pos_ = 0;
  std::size_t hist_count_ = 0;
  std::uint64_t next_allowed_cycle_ = 0;
  std::uint64_t access_counter_ = 0;
  std::vector<float> addr_;   ///< [T, addr_segments]
  std::vector<float> pcs_;    ///< [T, pc_segments]
  std::vector<float> probs_;  ///< [DO]
  std::vector<std::pair<float, std::size_t>> fired_;
};

class DartPrefetcher final : public NnPrefetcherBase {
 public:
  DartPrefetcher(std::shared_ptr<const tabular::TabularPredictor> predictor,
                 const NnAdapterOptions& options, std::string display_name = "DART");

  std::size_t storage_bytes() const override { return predictor_->storage_bytes(); }
  std::string name() const override { return name_; }

 protected:
  void predict_into(const float* addr, const float* pc, float* probs) override;

 private:
  std::shared_ptr<const tabular::TabularPredictor> predictor_;
  tabular::TabularArch workspace_demand_;  ///< sizes the per-thread workspace
  std::string name_;
};

class AttentionPrefetcher final : public NnPrefetcherBase {
 public:
  AttentionPrefetcher(std::shared_ptr<nn::AddressPredictor> model,
                      const NnAdapterOptions& options, std::string display_name);

  std::size_t storage_bytes() const override;
  std::string name() const override { return name_; }
  /// The attention model caches activations during forward.
  bool shares_mutable_model() const override { return true; }

 protected:
  void predict_into(const float* addr, const float* pc, float* probs) override;

 private:
  std::shared_ptr<nn::AddressPredictor> model_;
  std::string name_;
};

class LstmPrefetcher final : public NnPrefetcherBase {
 public:
  LstmPrefetcher(std::shared_ptr<nn::LstmPredictor> model, const NnAdapterOptions& options,
                 std::string display_name);

  std::size_t storage_bytes() const override;
  std::string name() const override { return name_; }
  /// The LSTM model caches activations during forward.
  bool shares_mutable_model() const override { return true; }

 protected:
  void predict_into(const float* addr, const float* pc, float* probs) override;

 private:
  std::shared_ptr<nn::LstmPredictor> model_;
  std::string name_;
};

}  // namespace dart::prefetch
