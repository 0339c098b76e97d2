// Tests for the versioned `.dart` artifact store (src/io, DESIGN.md §7):
// bit-exact round trips of the full predictor bundle (exact and hash-tree
// encoders) and of the fused kernel, clean errors on truncated / corrupted /
// version-mismatched files, stale-configuration rejection, and the
// train-once ExperimentRunner artifact cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "io/artifact.hpp"
#include "nn/transformer.hpp"
#include "pq/encoder.hpp"
#include "tabular/fused_kernel.hpp"
#include "tabular/tabularizer.hpp"

namespace dart {
namespace {

nn::ModelConfig tiny_arch() {
  nn::ModelConfig a;
  a.seq_len = 4;
  a.addr_dim = 4;
  a.pc_dim = 4;
  a.dim = 8;
  a.ffn_dim = 16;
  a.out_dim = 12;
  a.heads = 2;
  a.layers = 1;
  return a;
}

/// A small but complete table hierarchy: tabularize an (untrained) model on
/// random activations — the artifact store only cares about the tables.
tabular::TabularPredictor tiny_predictor(pq::EncoderKind encoder) {
  nn::AddressPredictor model(tiny_arch(), 7);
  nn::Tensor addr = nn::Tensor::randn({48, 4, 4}, 0.6f, 11);
  nn::Tensor pc = nn::Tensor::randn({48, 4, 4}, 0.6f, 12);
  tabular::TabularizeOptions options;
  options.tables = tabular::TableConfig::uniform(8, 2);
  options.fine_tune = false;
  options.encoder = encoder;
  options.kmeans_iters = 4;
  options.max_train_samples = 48;
  return tabular::tabularize(model, addr, pc, options);
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_bit_exact(const tabular::TabularPredictor& a, const tabular::TabularPredictor& b) {
  nn::Tensor addr = nn::Tensor::randn({16, 4, 4}, 0.8f, 21);
  nn::Tensor pc = nn::Tensor::randn({16, 4, 4}, 0.8f, 22);
  nn::Tensor ya = a.forward(addr, pc);
  nn::Tensor yb = b.forward(addr, pc);
  ASSERT_EQ(ya.numel(), yb.numel());
  EXPECT_EQ(0, std::memcmp(ya.data(), yb.data(), ya.numel() * sizeof(float)));
}

TEST(Artifact, RoundTripsPredictorBitExactWithExactEncoder) {
  const std::string path = temp_path("dart_artifact_exact.dart");
  tabular::TabularPredictor original = tiny_predictor(pq::EncoderKind::kExact);
  original.save(path);
  tabular::TabularPredictor reloaded = tabular::TabularPredictor::load(path);
  EXPECT_EQ(original.storage_bytes(), reloaded.storage_bytes());
  expect_bit_exact(original, reloaded);
  std::remove(path.c_str());
}

TEST(Artifact, RoundTripsPredictorBitExactWithHashTreeEncoder) {
  const std::string path = temp_path("dart_artifact_tree.dart");
  tabular::TabularPredictor original = tiny_predictor(pq::EncoderKind::kHashTree);
  original.save(path);
  tabular::TabularPredictor reloaded = tabular::TabularPredictor::load(path);
  expect_bit_exact(original, reloaded);
  std::remove(path.c_str());
}

TEST(Artifact, ContentHashIsDeterministic) {
  const std::string p1 = temp_path("dart_artifact_h1.dart");
  const std::string p2 = temp_path("dart_artifact_h2.dart");
  tabular::TabularPredictor predictor = tiny_predictor(pq::EncoderKind::kExact);
  io::ArtifactMeta meta;
  meta.producer = "test";
  const std::uint64_t h1 = io::save_predictor_artifact(p1, predictor, meta);
  const std::uint64_t h2 = io::save_predictor_artifact(p2, predictor, meta);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1, io::read_artifact_info(p1).content_hash);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Artifact, InfoCarriesMetadata) {
  const std::string path = temp_path("dart_artifact_meta.dart");
  tabular::TabularPredictor predictor = tiny_predictor(pq::EncoderKind::kExact);
  io::ArtifactMeta meta;
  meta.producer = "test";
  meta.app = "605.mcf";
  meta.display_name = "DART-TEST";
  meta.config_key = "cafe";
  meta.latency_cycles = 91;
  meta.prep.segment_bits = 5;
  io::save_predictor_artifact(path, predictor, meta);
  const io::ArtifactInfo info = io::read_artifact_info(path);
  EXPECT_EQ(info.format_version, io::kFormatVersion);
  EXPECT_EQ(info.meta.app, "605.mcf");
  EXPECT_EQ(info.meta.display_name, "DART-TEST");
  EXPECT_EQ(info.meta.config_key, "cafe");
  EXPECT_EQ(info.meta.latency_cycles, 91u);
  EXPECT_EQ(info.meta.prep.segment_bits, 5u);
  EXPECT_EQ(info.arch.dim, tiny_arch().dim);
  std::remove(path.c_str());
}

TEST(Artifact, RoundTripsFusedKernelBitExact) {
  for (pq::EncoderKind kind : {pq::EncoderKind::kExact, pq::EncoderKind::kHashTree}) {
    const std::string path = temp_path("dart_artifact_fused.dart");
    nn::Tensor rows = nn::Tensor::randn({64, 6}, 1.0f, 31);
    tabular::FusedKernelConfig config;
    config.num_prototypes = 16;
    config.encoder = kind;
    auto stack = [](const nn::Tensor& x) {
      nn::Tensor y({x.dim(0), 3});
      for (std::size_t i = 0; i < x.dim(0); ++i) {
        for (std::size_t j = 0; j < 3; ++j) y.at(i, j) = x.at(i, j) * 2.0f + 1.0f;
      }
      return y;
    };
    tabular::FusedKernel original(6, 3, stack, rows, config);
    original.save(path);
    tabular::FusedKernel reloaded = tabular::FusedKernel::load(path);
    nn::Tensor probe = nn::Tensor::randn({32, 6}, 1.0f, 32);
    nn::Tensor ya = original.query(probe);
    nn::Tensor yb = reloaded.query(probe);
    ASSERT_EQ(ya.numel(), yb.numel());
    EXPECT_EQ(0, std::memcmp(ya.data(), yb.data(), ya.numel() * sizeof(float)));
    std::remove(path.c_str());
  }
}

TEST(Artifact, MissingFileIsACleanErrorNamingThePath) {
  const std::string path = temp_path("dart_no_such_file.dart");
  try {
    tabular::TabularPredictor::load(path);
    FAIL() << "missing file not detected";
  } catch (const io::ArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error message does not name the failing file: " << e.what();
  }
}

// The quarantine-log contract (DESIGN.md §11): a rejected artifact's error
// message pins the damage — file path, chunk tag, and file byte offset —
// so an operator can tell a bad byte from a bad deploy. The corruption here
// is checksum-consistent (the CSUM trailer is recomputed over the damaged
// image), so only the chunk parser can object, exercising the in-chunk
// context layering rather than the checksum fast-fail.
TEST(Artifact, ParseErrorsCarryPathChunkTagAndByteOffset) {
  const std::string path = temp_path("dart_artifact_context.dart");
  tiny_predictor(pq::EncoderKind::kExact).save(path);
  std::vector<char> bytes = slurp(path);

  const char tag[4] = {'T', 'P', 'R', 'D'};
  std::size_t tag_at = std::string::npos;
  for (std::size_t i = 16; i + 12 < bytes.size(); ++i) {
    if (std::memcmp(bytes.data() + i, tag, 4) == 0) {
      tag_at = i;
      break;
    }
  }
  ASSERT_NE(tag_at, std::string::npos) << "no TPRD chunk in the saved artifact";
  // Saturate the leading payload fields (element counts / dims): whatever
  // they encode becomes absurd and the parser must reject it.
  for (std::size_t i = 0; i < 8; ++i) bytes[tag_at + 12 + i] = static_cast<char>(0xFF);
  // Recompute the trailing CSUM chunk ([tag 4][len u64 = 8][hash u64]) so
  // the checksum passes and the parse layer is what fails.
  ASSERT_GE(bytes.size(), 20u);
  const std::size_t csum_tag = bytes.size() - 20;
  ASSERT_EQ(std::memcmp(bytes.data() + csum_tag, "CSUM", 4), 0);
  const std::uint64_t hash = io::fnv1a64(bytes.data(), csum_tag);
  std::memcpy(bytes.data() + bytes.size() - 8, &hash, 8);
  spit(path, bytes);

  try {
    tabular::TabularPredictor::load(path);
    FAIL() << "corrupted TPRD payload parsed without error";
  } catch (const io::ArtifactError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << "no file path in: " << msg;
    EXPECT_NE(msg.find("chunk 'TPRD'"), std::string::npos) << "no chunk tag in: " << msg;
    EXPECT_NE(msg.find("byte offset"), std::string::npos) << "no byte offset in: " << msg;
  }
  std::remove(path.c_str());
}

TEST(Artifact, RejectsBadMagicAndForeignFiles) {
  const std::string path = temp_path("dart_artifact_notdart.dart");
  spit(path, {'n', 'o', 't', ' ', 'a', 'n', ' ', 'a', 'r', 't', 'i', 'f', 'a', 'c', 't'});
  EXPECT_THROW(tabular::TabularPredictor::load(path), io::ArtifactError);
  spit(path, {});
  EXPECT_THROW(tabular::TabularPredictor::load(path), io::ArtifactError);
  std::remove(path.c_str());
}

TEST(Artifact, RejectsVersionMismatch) {
  const std::string path = temp_path("dart_artifact_version.dart");
  tiny_predictor(pq::EncoderKind::kExact).save(path);
  std::vector<char> bytes = slurp(path);
  bytes[8] = 99;  // format version field (little-endian u32 at offset 8)
  spit(path, bytes);
  try {
    tabular::TabularPredictor::load(path);
    FAIL() << "version mismatch not detected";
  } catch (const io::ArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Artifact, DetectsSingleByteCorruptionAnywhere) {
  const std::string path = temp_path("dart_artifact_corrupt.dart");
  tiny_predictor(pq::EncoderKind::kHashTree).save(path);
  const std::vector<char> clean = slurp(path);
  ASSERT_GT(clean.size(), 64u);
  // Flip one byte at a spread of offsets across the file (headers, tables,
  // encoders, checksum): every flip must yield ArtifactError, never UB or
  // a silently different model.
  for (std::size_t pos = 16; pos < clean.size(); pos += clean.size() / 23 + 1) {
    std::vector<char> bytes = clean;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5A);
    spit(path, bytes);
    EXPECT_THROW(tabular::TabularPredictor::load(path), io::ArtifactError)
        << "corruption at byte " << pos << " was not detected";
  }
  std::remove(path.c_str());
}

TEST(Artifact, TruncationAtAnyPointIsACleanError) {
  const std::string path = temp_path("dart_artifact_trunc.dart");
  tiny_predictor(pq::EncoderKind::kExact).save(path);
  const std::vector<char> clean = slurp(path);
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, std::size_t{15}, std::size_t{16},
                           std::size_t{40}, clean.size() / 4, clean.size() / 2,
                           clean.size() - 9, clean.size() - 1}) {
    spit(path, std::vector<char>(clean.begin(), clean.begin() + keep));
    EXPECT_THROW(tabular::TabularPredictor::load(path), io::ArtifactError)
        << "truncation to " << keep << " bytes was not detected";
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------- atomic save (§13)
// Artifact saves go through write-temp + fsync + atomic rename: a crash
// mid-save can leave a partial `<path>.tmp` behind, but never a torn file
// under the final name. These tests pin the three observable halves of that
// contract: no temp residue after a clean save, stale temp files are inert,
// and a torn final file (simulated) is rejected with path context.

TEST(Artifact, SaveLeavesNoTempFileBehind) {
  const std::string path = temp_path("dart_artifact_atomic.dart");
  tiny_predictor(pq::EncoderKind::kExact).save(path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "save must rename its temp file away, not leave it beside the artifact";
  EXPECT_NO_THROW(tabular::TabularPredictor::load(path));
  std::remove(path.c_str());
}

TEST(Artifact, StalePartialTempFileIsIgnoredAndReplacedBySave) {
  const std::string path = temp_path("dart_artifact_stale_tmp.dart");
  tabular::TabularPredictor original = tiny_predictor(pq::EncoderKind::kExact);
  original.save(path);
  // A crashed previous save left a garbage temp next to the artifact:
  // readers only ever open the final name, so the load is unaffected.
  spit(path + ".tmp", {'p', 'a', 'r', 't', 'i', 'a', 'l'});
  tabular::TabularPredictor reloaded = tabular::TabularPredictor::load(path);
  expect_bit_exact(original, reloaded);
  // The next save overwrites the stale temp and renames it away.
  original.save(path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_NO_THROW(tabular::TabularPredictor::load(path));
  std::remove(path.c_str());
}

TEST(Artifact, TornFinalFileIsRejectedWithPathAndTruncationContext) {
  // What a *non-atomic* writer would have left after a crash: the artifact
  // cut mid-chunk under its final name. The reader must reject it with an
  // error naming the file and the damage, never load a partial model.
  const std::string path = temp_path("dart_artifact_torn.dart");
  tiny_predictor(pq::EncoderKind::kExact).save(path);
  const std::vector<char> clean = slurp(path);
  spit(path, std::vector<char>(clean.begin(),
                               clean.begin() + static_cast<std::ptrdiff_t>(clean.size() / 2)));
  try {
    tabular::TabularPredictor::load(path);
    FAIL() << "torn artifact loaded without error";
  } catch (const io::ArtifactError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << "no file path in: " << msg;
    EXPECT_NE(msg.find("truncat"), std::string::npos)
        << "no truncation context in: " << msg;
  }
  std::remove(path.c_str());
}

TEST(Artifact, HashTreeRawConstructorValidatesTree) {
  using Node = pq::HashTreeEncoder::HotNode;
  // Valid 2-leaf tree: root splits dim 0, children are leaves 0/1.
  std::vector<Node> nodes(3);
  std::vector<std::int32_t> leaves = {-1, 0, 1};
  EXPECT_NO_THROW(pq::HashTreeEncoder(nodes, leaves, 2, 3));
  // Split dimension out of range.
  std::vector<Node> bad_dim = nodes;
  bad_dim[0].split_dim = 7;
  EXPECT_THROW(pq::HashTreeEncoder(bad_dim, leaves, 2, 3), std::invalid_argument);
  // Leaf id out of range.
  EXPECT_THROW(pq::HashTreeEncoder(nodes, {-1, 0, 9}, 2, 3), std::invalid_argument);
  // Reachable path that never terminates (all internal).
  EXPECT_THROW(pq::HashTreeEncoder(nodes, {-1, -1, -1}, 2, 3), std::invalid_argument);
  // Array sizes inconsistent with K.
  EXPECT_THROW(pq::HashTreeEncoder(nodes, leaves, 4, 3), std::invalid_argument);
}

TEST(ArtifactCache, RejectsStaleConfigKey) {
  const std::string dir = temp_path("dart_cache_stale");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/model.dart";
  core::TrainedDart trained;
  trained.predictor = tiny_predictor(pq::EncoderKind::kExact);
  trained.display_name = "DART-TEST";
  trained.latency_cycles = 50;
  trained.config_key = "expected-key";
  ASSERT_TRUE(core::save_dart_artifact(path, trace::App::kMcf, trained, "test"));
  EXPECT_TRUE(core::try_load_dart_artifact(path, "expected-key").has_value());
  EXPECT_FALSE(core::try_load_dart_artifact(path, "different-key").has_value());
  EXPECT_FALSE(core::try_load_dart_artifact(dir + "/absent.dart", "x").has_value());
  std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, ExperimentRunnerSkipsTrainingOnSecondSweep) {
  const std::string dir = temp_path("dart_cache_sweep");
  std::filesystem::remove_all(dir);

  core::ExperimentSpec spec;
  spec.workloads = {"462.libquantum"};
  spec.prefetchers = {"dart:variant=s"};
  spec.pipeline.raw_accesses = 30000;
  spec.pipeline.prep.max_samples = 400;
  spec.pipeline.teacher_train.epochs = 1;
  spec.pipeline.student_train.epochs = 1;
  spec.pipeline.tab.max_train_samples = 300;
  spec.pipeline.artifact_dir = dir;

  const core::ExperimentResult first = core::ExperimentRunner(spec).run();
  ASSERT_EQ(first.cells.size(), 1u);
  // The sweep persisted a .dart artifact plus NN checkpoints.
  std::size_t dart_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".dart") ++dart_files;
  }
  EXPECT_EQ(dart_files, 1u);

  // Second invocation must reload instead of retraining and reproduce the
  // cell exactly (same predictor tables => same simulation).
  const core::ExperimentResult second = core::ExperimentRunner(spec).run();
  ASSERT_EQ(second.cells.size(), 1u);
  EXPECT_EQ(first.cells[0].stats.cycles, second.cells[0].stats.cycles);
  EXPECT_EQ(first.cells[0].stats.pf_issued, second.cells[0].stats.pf_issued);
  EXPECT_EQ(first.cells[0].storage_bytes, second.cells[0].storage_bytes);
  EXPECT_DOUBLE_EQ(first.cells[0].ipc_improvement, second.cells[0].ipc_improvement);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dart
