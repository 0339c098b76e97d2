#include "io/artifact.hpp"

#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "pq/encoder.hpp"
#include "tabular/linear_kernel.hpp"

namespace dart::io {

namespace {

// 8-byte magic: non-ASCII first byte catches text-mode mangling (PNG-style),
// the rest spells the format.
constexpr std::uint8_t kMagic[8] = {0x89, 'D', 'A', 'R', 'T', 'B', 'L', 0x0A};
constexpr std::size_t kHeaderBytes = 16;  // magic + version u32 + flags u32

constexpr char kTagMeta[5] = "META";
constexpr char kTagArch[5] = "ARCH";
constexpr char kTagPredictor[5] = "TPRD";
constexpr char kTagFused[5] = "FUSD";
constexpr char kTagChecksum[5] = "CSUM";

constexpr std::uint8_t kEncoderExact = 0;
constexpr std::uint8_t kEncoderHashTree = 1;

std::size_t pad_to_8(std::size_t n) { return (8 - n % 8) % 8; }

// ------------------------------------------------------------- container

/// Accumulates tagged chunks and writes the framed, checksummed file.
class ChunkWriter {
 public:
  ByteWriter& chunk(const char tag[5]) {
    chunks_.emplace_back(tag, ByteWriter{});
    return chunks_.back().second;
  }

  /// Frames all chunks, appends CSUM, writes `path`. Returns the checksum
  /// (= content hash).
  std::uint64_t write(const std::string& path) const {
    ByteWriter file;
    for (std::size_t i = 0; i < sizeof(kMagic); ++i) file.u8(kMagic[i]);
    file.u32(kFormatVersion);
    file.u32(0);  // flags: reserved, must be zero in v1
    for (const auto& [tag, payload] : chunks_) {
      append_chunk(file, tag, payload.bytes());
    }
    const std::uint64_t hash = fnv1a64(file.bytes().data(), file.size());
    ByteWriter csum;
    csum.u64(hash);
    // The checksum chunk is unpadded and terminates the file: every stored
    // byte is covered either by the hash or by being the hash.
    append_chunk(file, kTagChecksum, csum.bytes(), /*pad=*/false);

    // write-temp + fsync + atomic rename: a crash mid-save can never leave
    // a torn `.dart` under the final name, so consumers either see the old
    // complete artifact or the new one (never a checksum-failing hybrid).
    write_file_atomic(path, file.bytes().data(), file.size());
    return hash;
  }

 private:
  static void append_chunk(ByteWriter& file, const std::string& tag,
                           const std::vector<std::uint8_t>& payload, bool pad = true) {
    for (char c : tag) file.u8(static_cast<std::uint8_t>(c));
    file.u64(payload.size());
    for (std::uint8_t b : payload) file.u8(b);
    if (pad) {
      for (std::size_t i = 0; i < pad_to_8(4 + 8 + payload.size()); ++i) file.u8(0);
    }
  }

  std::vector<std::pair<std::string, ByteWriter>> chunks_;
};

/// Parses and verifies the container framing of a loaded file.
class ChunkReader {
 public:
  explicit ChunkReader(std::vector<std::uint8_t> file) : file_(std::move(file)) {
    if (file_.size() < kHeaderBytes ||
        std::memcmp(file_.data(), kMagic, sizeof(kMagic)) != 0) {
      throw ArtifactError("not a .dart artifact (bad magic)");
    }
    ByteReader header(file_.data() + sizeof(kMagic), 8);
    version_ = header.u32();
    const std::uint32_t flags = header.u32();
    if (version_ != kFormatVersion) {
      throw ArtifactError("unsupported .dart format version " + std::to_string(version_) +
                          " (this build reads version " + std::to_string(kFormatVersion) + ")");
    }
    if (flags != 0) throw ArtifactError("unsupported .dart feature flags");

    std::size_t pos = kHeaderBytes;
    bool checksummed = false;
    while (pos < file_.size()) {
      if (file_.size() - pos < 12) throw ArtifactError("truncated chunk header");
      if (checksummed) throw ArtifactError("artifact has chunks after the checksum");
      const std::string tag(reinterpret_cast<const char*>(file_.data() + pos), 4);
      ByteReader len_reader(file_.data() + pos + 4, 8);
      const std::uint64_t len = len_reader.u64();
      const std::size_t payload_at = pos + 12;
      if (len > file_.size() - payload_at) throw ArtifactError("truncated chunk payload");
      if (tag == kTagChecksum) {
        ByteReader csum(file_.data() + payload_at, static_cast<std::size_t>(len));
        hash_ = csum.u64();
        if (hash_ != fnv1a64(file_.data(), pos)) {
          throw ArtifactError("artifact checksum mismatch (file is corrupted)");
        }
        // The checksum chunk must be the exact tail of the file, so no
        // stored byte escapes verification.
        if (payload_at + static_cast<std::size_t>(len) != file_.size()) {
          throw ArtifactError("artifact bytes found after the checksum chunk");
        }
        checksummed = true;
      } else {
        // Unknown tags are recorded but never required: forward compat.
        chunks_.emplace_back(tag, std::make_pair(payload_at, static_cast<std::size_t>(len)));
      }
      pos = payload_at + static_cast<std::size_t>(len) + pad_to_8(12 + len);
    }
    if (!checksummed) throw ArtifactError("artifact has no checksum chunk (truncated?)");
  }

  bool has(const char tag[5]) const { return find_span(tag) != nullptr; }

  ByteReader require(const char tag[5]) const {
    const auto* span = find_span(tag);
    if (!span) {
      throw ArtifactError(std::string("artifact is missing required chunk '") + tag + "'");
    }
    return ByteReader(file_.data() + span->first, span->second);
  }

  /// File byte offset of `tag`'s payload (quarantine-log context); 0 when
  /// the chunk is absent.
  std::size_t offset_of(const char tag[5]) const {
    const auto* span = find_span(tag);
    return span ? span->first : 0;
  }

  std::uint32_t version() const { return version_; }
  std::uint64_t content_hash() const { return hash_; }

 private:
  const std::pair<std::size_t, std::size_t>* find_span(const char tag[5]) const {
    for (const auto& [t, span] : chunks_) {
      if (t == tag) return &span;
    }
    return nullptr;
  }

  std::vector<std::uint8_t> file_;
  std::vector<std::pair<std::string, std::pair<std::size_t, std::size_t>>> chunks_;
  std::uint32_t version_ = 0;
  std::uint64_t hash_ = 0;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw ArtifactError("cannot open artifact '" + path + "'");
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw ArtifactError("failed reading artifact '" + path + "'");
  return bytes;
}

// ------------------------------------------------- config (de)serializers
// (the put_* side is public — see artifact.hpp — so cache keys and chunks
// cannot drift apart)

nn::ModelConfig get_model_config(ByteReader& r) {
  nn::ModelConfig c;
  c.seq_len = r.u64();
  c.addr_dim = r.u64();
  c.pc_dim = r.u64();
  c.dim = r.u64();
  c.ffn_dim = r.u64();
  c.out_dim = r.u64();
  c.heads = r.u64();
  c.layers = r.u64();
  return c;
}

tabular::TableConfig get_table_config(ByteReader& r) {
  tabular::TableConfig t;
  for (auto* lc : {&t.input, &t.attention, &t.ffn, &t.output}) {
    lc->k = r.u64();
    lc->c = r.u64();
  }
  t.data_bits = r.u64();
  return t;
}

trace::PreprocessOptions get_prep(ByteReader& r) {
  trace::PreprocessOptions p;
  p.history = r.u64();
  p.segment_bits = r.u64();
  p.addr_segments = r.u64();
  p.pc_segments = r.u64();
  p.bitmap_size = r.u64();
  p.lookforward = r.u64();
  p.max_samples = r.u64();
  return p;
}

pq::EncoderKind decode_encoder_kind(std::uint8_t v) {
  switch (v) {
    case kEncoderExact:
      return pq::EncoderKind::kExact;
    case kEncoderHashTree:
      return pq::EncoderKind::kHashTree;
  }
  throw ArtifactError("unknown encoder kind tag " + std::to_string(v));
}

std::uint8_t encode_encoder_kind(pq::EncoderKind kind) {
  return kind == pq::EncoderKind::kExact ? kEncoderExact : kEncoderHashTree;
}

// ------------------------------------------------ encoder (de)serializers

void put_encoder(ByteWriter& w, const pq::Encoder& encoder) {
  if (const auto* exact = dynamic_cast<const pq::ExactEncoder*>(&encoder)) {
    w.u8(kEncoderExact);
    w.tensor(exact->prototypes());
    return;
  }
  if (const auto* tree = dynamic_cast<const pq::HashTreeEncoder*>(&encoder)) {
    w.u8(kEncoderHashTree);
    w.u64(tree->num_prototypes());
    w.u64(tree->vec_dim());
    const auto& nodes = tree->nodes();
    std::vector<std::uint32_t> dims(nodes.size());
    std::vector<float> thresholds(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      dims[i] = nodes[i].split_dim;
      thresholds[i] = nodes[i].threshold;
    }
    w.u32s(dims.data(), dims.size());
    w.f32s(thresholds.data(), thresholds.size());
    w.i32s(tree->leaves().data(), tree->leaves().size());
    return;
  }
  throw ArtifactError("encoder type is not serializable");
}

std::unique_ptr<pq::Encoder> get_encoder(ByteReader& r) {
  const std::uint8_t kind = r.u8();
  if (kind == kEncoderExact) {
    return std::make_unique<pq::ExactEncoder>(r.tensor());
  }
  if (kind == kEncoderHashTree) {
    const std::size_t k = r.u64();
    const std::size_t v = r.u64();
    std::vector<std::uint32_t> dims = r.u32s();
    std::vector<float> thresholds = r.f32s();
    std::vector<std::int32_t> leaves = r.i32s();
    if (thresholds.size() != dims.size() || leaves.size() != dims.size()) {
      throw ArtifactError("hash-tree encoder arrays are inconsistent");
    }
    std::vector<pq::HashTreeEncoder::HotNode> nodes(dims.size());
    for (std::size_t i = 0; i < dims.size(); ++i) {
      nodes[i].split_dim = dims[i];
      nodes[i].threshold = thresholds[i];
    }
    return std::make_unique<pq::HashTreeEncoder>(std::move(nodes), std::move(leaves), k, v);
  }
  throw ArtifactError("unknown encoder kind tag " + std::to_string(kind));
}

// ------------------------------------------------- kernel (de)serializers

void put_linear(ByteWriter& w, const tabular::LinearKernel& kernel) {
  const tabular::KernelConfig& c = kernel.config();
  w.u64(kernel.in_dim());
  w.u64(kernel.out_dim());
  w.u64(c.num_prototypes);
  w.u64(c.num_subspaces);
  w.u8(encode_encoder_kind(c.encoder));
  w.u64(c.kmeans_iters);
  w.u64(c.seed);
  w.f32s(kernel.table().data(), kernel.table().size());
  for (std::size_t sc = 0; sc < c.num_subspaces; ++sc) put_encoder(w, kernel.encoder(sc));
}

std::unique_ptr<tabular::LinearKernel> get_linear(ByteReader& r) {
  const std::size_t in_dim = r.u64();
  const std::size_t out_dim = r.u64();
  tabular::KernelConfig c;
  c.num_prototypes = r.u64();
  c.num_subspaces = r.u64();
  c.encoder = decode_encoder_kind(r.u8());
  c.kmeans_iters = r.u64();
  c.seed = r.u64();
  std::vector<float> table = r.f32s();
  std::vector<std::unique_ptr<pq::Encoder>> encoders;
  encoders.reserve(c.num_subspaces);
  for (std::size_t sc = 0; sc < c.num_subspaces; ++sc) encoders.push_back(get_encoder(r));
  return std::make_unique<tabular::LinearKernel>(
      tabular::LinearKernel::from_parts(c, in_dim, out_dim, std::move(table),
                                        std::move(encoders)));
}

void put_attention(ByteWriter& w, const tabular::AttentionKernel& kernel) {
  const tabular::AttentionKernelConfig& c = kernel.config();
  w.u64(kernel.seq_len());
  w.u64(kernel.head_dim());
  w.u64(c.num_prototypes);
  w.u64(c.ck);
  w.u64(c.ct);
  w.u8(c.activation == tabular::AttentionActivation::kSigmoidFolded ? 0 : 1);
  w.u8(encode_encoder_kind(c.encoder));
  w.u64(c.kmeans_iters);
  w.u64(c.seed);
  w.f32s(kernel.qk_table().data(), kernel.qk_table().size());
  w.f32s(kernel.qkv_table().data(), kernel.qkv_table().size());
  for (std::size_t sc = 0; sc < c.ck; ++sc) put_encoder(w, kernel.q_encoder(sc));
  for (std::size_t sc = 0; sc < c.ck; ++sc) put_encoder(w, kernel.k_encoder(sc));
  for (std::size_t sc = 0; sc < c.ct; ++sc) put_encoder(w, kernel.s_encoder(sc));
  for (std::size_t sc = 0; sc < c.ct; ++sc) put_encoder(w, kernel.v_encoder(sc));
}

std::unique_ptr<tabular::AttentionKernel> get_attention(ByteReader& r) {
  const std::size_t t_len = r.u64();
  const std::size_t dk = r.u64();
  tabular::AttentionKernelConfig c;
  c.num_prototypes = r.u64();
  c.ck = r.u64();
  c.ct = r.u64();
  const std::uint8_t act = r.u8();
  if (act > 1) throw ArtifactError("unknown attention activation tag");
  c.activation = act == 0 ? tabular::AttentionActivation::kSigmoidFolded
                          : tabular::AttentionActivation::kSoftmaxAtQuery;
  c.encoder = decode_encoder_kind(r.u8());
  c.kmeans_iters = r.u64();
  c.seed = r.u64();
  std::vector<float> qk_table = r.f32s();
  std::vector<float> qkv_table = r.f32s();
  auto read_bank = [&r](std::size_t count) {
    std::vector<std::unique_ptr<pq::Encoder>> bank;
    bank.reserve(count);
    for (std::size_t i = 0; i < count; ++i) bank.push_back(get_encoder(r));
    return bank;
  };
  auto q_enc = read_bank(c.ck);
  auto k_enc = read_bank(c.ck);
  auto s_enc = read_bank(c.ct);
  auto v_enc = read_bank(c.ct);
  return std::make_unique<tabular::AttentionKernel>(tabular::AttentionKernel::from_parts(
      c, t_len, dk, std::move(qk_table), std::move(qkv_table), std::move(q_enc),
      std::move(k_enc), std::move(s_enc), std::move(v_enc)));
}

void put_ln(ByteWriter& w, const tabular::LnParams& ln) {
  w.tensor(ln.gamma);
  w.tensor(ln.beta);
  w.f32(ln.eps);
}

tabular::LnParams get_ln(ByteReader& r) {
  tabular::LnParams ln;
  ln.gamma = r.tensor();
  ln.beta = r.tensor();
  ln.eps = r.f32();
  if (ln.gamma.numel() != ln.beta.numel()) {
    throw ArtifactError("LayerNorm gamma/beta size mismatch");
  }
  return ln;
}

void put_lut(ByteWriter& w, const tabular::SigmoidLut& lut) {
  w.u32(static_cast<std::uint32_t>(tabular::SigmoidLut::kEntries));
  w.f32(tabular::SigmoidLut::kRange);
  w.f32s(lut.table_data(), tabular::SigmoidLut::kEntries);
}

tabular::SigmoidLut get_lut(ByteReader& r) {
  const std::uint32_t entries = r.u32();
  const float range = r.f32();
  if (entries != tabular::SigmoidLut::kEntries || range != tabular::SigmoidLut::kRange) {
    throw ArtifactError("sigmoid LUT geometry is not supported by this build");
  }
  std::vector<float> stored = r.f32s();
  if (stored.size() != tabular::SigmoidLut::kEntries) {
    throw ArtifactError("sigmoid LUT payload has the wrong entry count");
  }
  // Adopt the stored table verbatim (integrity is already covered by the
  // container checksum): served predictions stay bit-exact with the
  // producing host even when this host's libm rounds std::exp differently.
  tabular::SigmoidLut lut;
  lut.set_table(stored.data(), stored.size());
  return lut;
}

// ---------------------------------------------- predictor (de)serializers

void put_linear_opt(ByteWriter& w, const std::unique_ptr<tabular::LinearKernel>& kernel) {
  w.u8(kernel ? 1 : 0);
  if (kernel) put_linear(w, *kernel);
}

std::unique_ptr<tabular::LinearKernel> get_linear_opt(ByteReader& r) {
  return r.u8() ? get_linear(r) : nullptr;
}

void put_predictor(ByteWriter& w, const tabular::TabularPredictor& p) {
  put_linear_opt(w, p.addr_kernel);
  put_linear_opt(w, p.pc_kernel);
  w.tensor(p.pos_encoding);
  w.u64(p.layers.size());
  for (const auto& layer : p.layers) {
    put_linear_opt(w, layer.qkv);
    w.u64(layer.heads.size());
    for (const auto& head : layer.heads) put_attention(w, *head);
    put_linear_opt(w, layer.out_proj);
    put_ln(w, layer.ln1);
    put_linear_opt(w, layer.ffn_hidden);
    put_linear_opt(w, layer.ffn_out);
    put_ln(w, layer.ln2);
  }
  put_ln(w, p.final_ln);
  put_linear_opt(w, p.head_kernel);
  put_lut(w, p.sigmoid_lut);
}

/// Cross-checks the deserialized kernels against the declared architecture
/// so a mismatched ARCH/TPRD pair fails loudly instead of mis-indexing.
void check_dims(bool ok, const char* what) {
  if (!ok) throw ArtifactError(std::string("artifact predictor inconsistent: ") + what);
}

tabular::TabularPredictor get_predictor(ByteReader& r, const nn::ModelConfig& arch) {
  tabular::TabularPredictor p(arch);
  p.addr_kernel = get_linear_opt(r);
  p.pc_kernel = get_linear_opt(r);
  p.pos_encoding = r.tensor();
  const std::size_t layer_count = r.u64();
  check_dims(layer_count == arch.layers, "layer count");
  check_dims(p.pos_encoding.ndim() == 2 && p.pos_encoding.dim(0) == arch.seq_len &&
                 p.pos_encoding.dim(1) == arch.dim,
             "positional encoding shape");
  check_dims(p.addr_kernel && p.addr_kernel->in_dim() == arch.addr_dim &&
                 p.addr_kernel->out_dim() == arch.dim,
             "addr kernel shape");
  check_dims(p.pc_kernel && p.pc_kernel->in_dim() == arch.pc_dim &&
                 p.pc_kernel->out_dim() == arch.dim,
             "pc kernel shape");
  p.layers.resize(layer_count);
  for (auto& layer : p.layers) {
    layer.qkv = get_linear_opt(r);
    check_dims(layer.qkv && layer.qkv->in_dim() == arch.dim &&
                   layer.qkv->out_dim() == 3 * arch.dim,
               "qkv kernel shape");
    const std::size_t heads = r.u64();
    check_dims(heads == arch.heads, "head count");
    layer.heads.resize(heads);
    for (auto& head : layer.heads) {
      head = get_attention(r);
      check_dims(head->seq_len() == arch.seq_len &&
                     head->head_dim() * arch.heads == arch.dim,
                 "attention head shape");
    }
    layer.out_proj = get_linear_opt(r);
    layer.ln1 = get_ln(r);
    layer.ffn_hidden = get_linear_opt(r);
    layer.ffn_out = get_linear_opt(r);
    layer.ln2 = get_ln(r);
    check_dims(layer.out_proj && layer.out_proj->in_dim() == arch.dim &&
                   layer.out_proj->out_dim() == arch.dim,
               "out_proj kernel shape");
    check_dims(layer.ffn_hidden && layer.ffn_hidden->in_dim() == arch.dim &&
                   layer.ffn_hidden->out_dim() == arch.ffn_dim,
               "ffn hidden kernel shape");
    check_dims(layer.ffn_out && layer.ffn_out->in_dim() == arch.ffn_dim &&
                   layer.ffn_out->out_dim() == arch.dim,
               "ffn out kernel shape");
    check_dims(layer.ln1.gamma.numel() == arch.dim && layer.ln2.gamma.numel() == arch.dim,
               "layer norm width");
  }
  p.final_ln = get_ln(r);
  p.head_kernel = get_linear_opt(r);
  check_dims(p.head_kernel && p.head_kernel->in_dim() == arch.dim &&
                 p.head_kernel->out_dim() == arch.out_dim,
             "head kernel shape");
  check_dims(p.final_ln.gamma.numel() == arch.dim, "final layer norm width");
  p.sigmoid_lut = get_lut(r);
  if (!r.done()) throw ArtifactError("trailing bytes in predictor chunk");
  return p;
}

void put_meta(ByteWriter& w, const ArtifactMeta& meta) {
  w.str(meta.producer);
  w.str(meta.app);
  w.str(meta.display_name);
  w.str(meta.config_key);
  w.u64(meta.latency_cycles);
  put_table_config(w, meta.tables);
  put_prep(w, meta.prep);
}

ArtifactMeta get_meta(ByteReader& r) {
  ArtifactMeta meta;
  meta.producer = r.str();
  meta.app = r.str();
  meta.display_name = r.str();
  meta.config_key = r.str();
  meta.latency_cycles = r.u64();
  meta.tables = get_table_config(r);
  meta.prep = get_prep(r);
  return meta;
}

/// Translates any parsing exception (std::invalid_argument from the
/// from_parts validators, bad_alloc from adversarial sizes, ...) into an
/// ArtifactError carrying the file path.
template <typename Fn>
auto with_clean_errors(const std::string& path, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const ArtifactError& e) {
    throw ArtifactError(path + ": " + e.what());
  } catch (const std::exception& e) {
    throw ArtifactError(path + ": invalid artifact: " + e.what());
  }
}

/// Runs `fn` over the required chunk `tag`, stamping any failure with the
/// chunk tag and its file byte offset so quarantine logs (the serve-side
/// swap_artifact rejection path, DESIGN.md §11) say exactly where the
/// damage sits: "<path>: chunk 'TPRD' at byte offset 128: ...".
template <typename Fn>
auto in_chunk(const ChunkReader& container, const char tag[5], Fn&& fn)
    -> decltype(fn(std::declval<ByteReader&>())) {
  ByteReader r = container.require(tag);
  try {
    return fn(r);
  } catch (const ArtifactError& e) {
    throw ArtifactError(std::string("chunk '") + tag + "' at byte offset " +
                        std::to_string(container.offset_of(tag)) + ": " + e.what());
  } catch (const std::exception& e) {
    throw ArtifactError(std::string("chunk '") + tag + "' at byte offset " +
                        std::to_string(container.offset_of(tag)) + ": invalid artifact: " +
                        e.what());
  }
}

ArtifactInfo info_from_container(const ChunkReader& container) {
  ArtifactInfo info;
  info.format_version = container.version();
  info.content_hash = container.content_hash();
  if (container.has(kTagMeta)) {
    info.meta = in_chunk(container, kTagMeta, [](ByteReader& r) { return get_meta(r); });
  }
  if (container.has(kTagArch)) {
    info.arch =
        in_chunk(container, kTagArch, [](ByteReader& r) { return get_model_config(r); });
  }
  return info;
}

}  // namespace

// ------------------------------------------------------------- public API

void put_model_config(ByteWriter& w, const nn::ModelConfig& c) {
  w.u64(c.seq_len);
  w.u64(c.addr_dim);
  w.u64(c.pc_dim);
  w.u64(c.dim);
  w.u64(c.ffn_dim);
  w.u64(c.out_dim);
  w.u64(c.heads);
  w.u64(c.layers);
}

void put_table_config(ByteWriter& w, const tabular::TableConfig& t) {
  for (const auto* lc : {&t.input, &t.attention, &t.ffn, &t.output}) {
    w.u64(lc->k);
    w.u64(lc->c);
  }
  w.u64(t.data_bits);
}

void put_prep(ByteWriter& w, const trace::PreprocessOptions& p) {
  w.u64(p.history);
  w.u64(p.segment_bits);
  w.u64(p.addr_segments);
  w.u64(p.pc_segments);
  w.u64(p.bitmap_size);
  w.u64(p.lookforward);
  w.u64(p.max_samples);
}

std::uint64_t save_predictor_artifact(const std::string& path,
                                      const tabular::TabularPredictor& predictor,
                                      const ArtifactMeta& meta) {
  return with_clean_errors(path, [&] {
    ChunkWriter out;
    put_meta(out.chunk(kTagMeta), meta);
    put_model_config(out.chunk(kTagArch), predictor.arch());
    put_predictor(out.chunk(kTagPredictor), predictor);
    return out.write(path);
  });
}

std::vector<std::uint8_t> read_artifact_file(const std::string& path) { return read_file(path); }

tabular::TabularPredictor load_predictor_artifact_bytes(std::vector<std::uint8_t> bytes,
                                                        const std::string& name,
                                                        ArtifactInfo* info) {
  return with_clean_errors(name, [&]() -> tabular::TabularPredictor {
    ChunkReader container(std::move(bytes));
    const nn::ModelConfig arch =
        in_chunk(container, kTagArch, [](ByteReader& r) { return get_model_config(r); });
    tabular::TabularPredictor predictor = in_chunk(
        container, kTagPredictor, [&](ByteReader& r) { return get_predictor(r, arch); });
    if (info) *info = info_from_container(container);
    return predictor;
  });
}

tabular::TabularPredictor load_predictor_artifact(const std::string& path, ArtifactInfo* info) {
  return load_predictor_artifact_bytes(read_file(path), path, info);
}

ArtifactInfo read_artifact_info(const std::string& path) {
  return with_clean_errors(path, [&] {
    ChunkReader container(read_file(path));
    return info_from_container(container);
  });
}

std::uint64_t save_fused_artifact(const std::string& path, const tabular::LinearKernel& kernel,
                                  const ArtifactMeta& meta) {
  return with_clean_errors(path, [&] {
    if (kernel.num_subspaces() != 1) {
      throw ArtifactError("a fused table has one codebook, this kernel has " +
                          std::to_string(kernel.num_subspaces()));
    }
    const tabular::KernelConfig& c = kernel.config();
    ChunkWriter out;
    put_meta(out.chunk(kTagMeta), meta);
    ByteWriter& w = out.chunk(kTagFused);
    w.u64(kernel.in_dim());
    w.u64(kernel.out_dim());
    w.u64(c.num_prototypes);
    w.u8(encode_encoder_kind(c.encoder));
    w.u64(c.kmeans_iters);
    w.u64(c.seed);
    // The [K, DO] table in ByteWriter::tensor's framing: ndim, extents, floats.
    w.u32(2);
    w.u64(c.num_prototypes);
    w.u64(kernel.out_dim());
    w.f32s(kernel.table().data(), kernel.table().size());
    put_encoder(w, kernel.encoder(0));
    return out.write(path);
  });
}

tabular::LinearKernel load_fused_artifact(const std::string& path, ArtifactInfo* info) {
  return with_clean_errors(path, [&]() -> tabular::LinearKernel {
    ChunkReader container(read_file(path));
    ByteReader r = container.require(kTagFused);
    const std::size_t in_dim = r.u64();
    const std::size_t out_dim = r.u64();
    tabular::KernelConfig config;
    config.num_prototypes = r.u64();
    config.num_subspaces = 1;
    config.encoder = decode_encoder_kind(r.u8());
    config.kmeans_iters = r.u64();
    config.seed = r.u64();
    nn::Tensor table = r.tensor();
    if (table.ndim() != 2 || table.dim(0) != config.num_prototypes ||
        table.dim(1) != out_dim) {
      throw ArtifactError("fused table shape mismatch");
    }
    std::vector<std::unique_ptr<pq::Encoder>> encoders;
    encoders.push_back(get_encoder(r));
    if (!r.done()) throw ArtifactError("trailing bytes in fused-kernel chunk");
    tabular::LinearKernel kernel = tabular::LinearKernel::from_parts(
        config, in_dim, out_dim, std::vector<float>(table.data(), table.data() + table.numel()),
        std::move(encoders));
    if (info) *info = info_from_container(container);
    return kernel;
  });
}

}  // namespace dart::io

// Member-function shims declared in the tabular headers: defined here so
// the tabular target never depends on io at compile time (the project links
// as one library, the same cross-directory idiom as the registry packs).
namespace dart::tabular {

void TabularPredictor::save(const std::string& path) const {
  io::ArtifactMeta meta;
  meta.producer = "TabularPredictor::save";
  io::save_predictor_artifact(path, *this, meta);
}

TabularPredictor TabularPredictor::load(const std::string& path) {
  return io::load_predictor_artifact(path);
}

}  // namespace dart::tabular
