// Ablation (the paper's §VIII future work): fuse the FFN's two linear
// layers + ReLU into ONE vector-quantized table and compare against the
// standard two-linear-kernel tabularization — fidelity (cosine to the NN
// FFN output on real activations) vs latency/storage.
#include "bench_common.hpp"
#include "nn/ops.hpp"
#include "tabular/complexity.hpp"
#include "tabular/fused_kernel.hpp"
#include "tabular/linear_kernel.hpp"

using namespace dart;

int main() {
  auto apps = bench::bench_apps();
  if (core::ExperimentSpec::env_apps().empty()) {
    apps = {trace::App::kLibquantum, trace::App::kGcc, trace::App::kMcf};
  }
  core::PipelineOptions opts = core::PipelineOptions::bench_defaults();

  struct Row {
    double cos_two = 0.0, cos_fused = 0.0;
  };
  std::vector<Row> rows(apps.size());
  bench::for_each_app_parallel(apps, [&](trace::App app, std::size_t i) {
    core::Pipeline pipe(app, opts);
    nn::AddressPredictor& student = pipe.student();
    auto& enc = *student.encoder_layers()[0];
    // Real FFN input distribution: the LN1 outputs on the training set.
    nn::Tensor x = student.addr_embed().apply(pipe.train_set().addr);
    {
      nn::Tensor ep = student.pc_embed().apply(pipe.train_set().pc);
      x += ep;
    }
    nn::Tensor qkv = enc.msa().qkv_proj().apply(x);
    nn::Tensor attn = enc.msa().out_proj().apply(enc.msa().attention_core(qkv));
    attn += x;
    nn::Tensor ffn_in = enc.ln1().apply(attn);
    nn::Tensor flat = ffn_in.reshaped({ffn_in.numel() / ffn_in.dim(2), ffn_in.dim(2)});
    // Subsample rows for tractable codebooks.
    const std::size_t m = std::min<std::size_t>(flat.dim(0), 16384);
    nn::Tensor train_rows = flat.reshaped({flat.dim(0), flat.dim(1)});
    nn::Tensor sample({m, flat.dim(1)});
    const std::size_t stride = std::max<std::size_t>(1, flat.dim(0) / m);
    for (std::size_t r = 0; r < m; ++r) {
      std::copy(flat.row(std::min(flat.dim(0) - 1, r * stride)),
                flat.row(std::min(flat.dim(0) - 1, r * stride)) + flat.dim(1),
                sample.row(r));
    }
    auto stack = [&](const nn::Tensor& in) {
      nn::Tensor h = enc.ffn().hidden_layer().apply(in);
      for (std::size_t j = 0; j < h.numel(); ++j) h[j] = h[j] > 0.0f ? h[j] : 0.0f;
      return enc.ffn().output_layer().apply(h);
    };
    nn::Tensor exact = stack(sample);

    // Two chained linear kernels (the paper's default path).
    tabular::KernelConfig kc;
    kc.num_prototypes = 128;
    kc.num_subspaces = 2;
    tabular::LinearKernel hidden_k(enc.ffn().hidden_layer().weight(),
                                   enc.ffn().hidden_layer().bias(), sample, kc);
    nn::Tensor h_hat = hidden_k.query(sample);
    for (std::size_t j = 0; j < h_hat.numel(); ++j) h_hat[j] = h_hat[j] > 0.0f ? h_hat[j] : 0.0f;
    tabular::LinearKernel out_k(enc.ffn().output_layer().weight(),
                                enc.ffn().output_layer().bias(), h_hat, kc);
    nn::Tensor two_stage = out_k.query(h_hat);

    // Fused single table (K=1024 single codebook).
    tabular::FusedKernelConfig fc;
    fc.num_prototypes = 1024;
    tabular::FusedKernel fused(flat.dim(1), exact.dim(1), stack, sample, fc);
    nn::Tensor fused_out = fused.query(sample);

    rows[i].cos_two = nn::ops::cosine_similarity(two_stage, exact);
    rows[i].cos_fused = nn::ops::cosine_similarity(fused_out, exact);
  });

  common::TablePrinter t("Ablation (SVIII future work): two linear kernels vs fused FFN table");
  t.set_header({"App", "cos two-kernel", "cos fused", "lat two", "lat fused"});
  const std::size_t lat_two = 2 * tabular::linear_kernel_latency(128, 2);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    t.add_row({trace::app_name(apps[i]), common::TablePrinter::fmt(rows[i].cos_two, 4),
               common::TablePrinter::fmt(rows[i].cos_fused, 4), std::to_string(lat_two),
               std::to_string(tabular::log2_ceil(1024) + 1)});
  }
  bench::emit(t, "ablation_fused_ffn.csv");
  std::printf("The fused table reaches ~%zu cycles (vs %zu for two kernels) at the cost\n"
              "of pure-VQ fidelity — quantifying the latency/accuracy trade the paper's\n"
              "conclusion proposes to explore.\n",
              tabular::log2_ceil(1024) + 1, lat_two);
  return 0;
}
