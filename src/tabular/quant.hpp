// Quantized table aggregation (DESIGN.md §10, the MADDNESS lineage).
//
// A linear kernel's [C][K][DO] output table (a fused one has C = 1) is
// quantized per output column to int16 or int8: column o stores integers q
// plus a float scale s_o and a float offset z_o (the zero point,
// pre-multiplied by C and kept in the float domain so it is applied exactly
// once per query). Aggregation becomes C integer row-adds followed by one
// dequantization pass:
//
//   y_o = s_o * (q[0][code_0][o] + ... + q[C-1][code_{C-1}][o]) + z_o
//
// Integer ranges are chosen with accumulation headroom (§10: int16 rows use
// ±⌊32767/C⌋, int8 shuffle LUTs ±⌊127/C⌋), so the saturating adds the SIMD
// paths use can never actually saturate — the error budget stays the pure
// rounding bound C·s_o/2. For K ≤ 16 the int8 mode additionally builds
// 16-entry in-register codebooks aggregated with AVX2 `vpshufb` byte
// shuffles, 32 rows per instruction; K > 16 uses widened row gathers +
// saturating adds. Every SIMD path has a scalar twin that produces
// bit-identical results, and `aggregate_quantized_reference` is the always-
// scalar golden path the tolerance tests pin both against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dart::tabular {

/// Table quantization mode of the inference path (the DART_QUANT knob).
/// kOff queries the exact float tables; kInt16/kInt8 aggregate quantized
/// tables within the DESIGN.md §10 error budget.
enum class QuantMode : std::uint8_t {
  kOff = 0,    ///< exact float tables (the default)
  kInt16 = 1,  ///< int16 rows, ±⌊32767/C⌋ headroom, error ≤ C·s_o/2
  kInt8 = 2,   ///< int8 rows (+ vpshufb LUTs when K ≤ 16), error ≤ C·s_o/2
};

/// Canonical knob spelling of a mode: "off", "int16", "int8".
const char* quant_mode_name(QuantMode mode);

/// Parses a knob value ("off" | "int16" | "int8", case-sensitive); throws
/// common::InputError on anything else so a typo in DART_QUANT or a
/// `quant=` spec parameter fails loudly instead of silently serving float.
QuantMode parse_quant_mode(const std::string& text);

/// One kernel's quantized table: integer payload in the same [C][K][DO]
/// layout as the float table it mirrors, plus the per-output-column
/// dequantization affine (scale, offset). Built by `quantize_table` or
/// adopted bit-exact from a `.dart` QNTT chunk.
struct QuantizedTable {
  QuantMode mode = QuantMode::kOff;  ///< payload width; kOff = no table
  std::size_t c = 0;                 ///< subspaces (codebooks)
  std::size_t k = 0;                 ///< prototypes per subspace
  std::size_t out_dim = 0;           ///< output columns (DO)
  /// Per-column dequantization scale s_o (0 for constant columns, which
  /// quantize exactly into the offset).
  std::vector<float> scales;
  /// Per-column dequantization offset z_o = C · midpoint_o — the zero point
  /// kept in the float domain and applied once per output.
  std::vector<float> offsets;
  std::vector<std::int16_t> q16;  ///< [C][K][DO] payload when mode == kInt16
  std::vector<std::int8_t> q8;    ///< [C][K][DO] payload when mode == kInt8
  /// In-register shuffle codebooks, [C][DO][16]: a relayout of `q8` built
  /// only when mode == kInt8 and K ≤ 16 (the vpshufb fast path).
  std::vector<std::int8_t> lut8;

  /// True when no quantized payload is attached (float path serves).
  bool empty() const { return mode == QuantMode::kOff; }
  /// True when the vpshufb 16-entry-codebook path is available.
  bool shuffle() const { return !lut8.empty(); }
  /// Integer payload bytes (the Eq. 18 storage win; excludes scales/offsets).
  std::size_t payload_bytes() const {
    return q16.size() * sizeof(std::int16_t) + q8.size() * sizeof(std::int8_t);
  }
  /// The §10 rounding-error bound of output column o: C · s_o / 2.
  float error_bound(std::size_t o) const {
    return 0.5f * static_cast<float>(c) * scales[o];
  }
};

/// Quantizes a float [C][K][DO] table (`table[((c*K)+k)*DO+o]`) to `mode`.
/// Deterministic: the same table and mode always yield the same payload.
/// `mode` must not be kOff; throws std::invalid_argument on that or on a
/// zero dimension.
QuantizedTable quantize_table(const float* table, std::size_t c, std::size_t k,
                              std::size_t out_dim, QuantMode mode);

/// Rebuilds the derived vpshufb LUT layout of `qt` from its `q8` payload
/// (no-op unless mode == kInt8 and K ≤ 16). Used after adopting a payload
/// from an artifact, where only `q8` travels.
void rebuild_shuffle_lut(QuantizedTable& qt);

/// Aggregates `n` rows from the quantized table: row i reads code
/// `codes[c*n + i]` per subspace c (the SoA layout of
/// LinearKernel::query_into) and writes DO dequantized floats at
/// `out + i*out_stride`. Dispatches to the AVX2 vpshufb / widened-row
/// saturating-add kernels when compiled for a host with AVX2, else to
/// scalar twins that produce bit-identical results.
void aggregate_quantized(const QuantizedTable& qt, const std::uint32_t* codes, std::size_t n,
                         float* out, std::size_t out_stride);

/// The always-scalar golden reference of `aggregate_quantized`: identical
/// arithmetic (saturating integer accumulation, one fused scale+offset per
/// output), no SIMD. The tolerance tests pin the SIMD paths against this
/// bit-exactly; it is not used on any hot path.
void aggregate_quantized_reference(const QuantizedTable& qt, const std::uint32_t* codes,
                                   std::size_t n, float* out, std::size_t out_stride);

}  // namespace dart::tabular
