// Per-thread inference arena (DESIGN.md §6).
//
// One `TabularPredictor::forward_sample_into` call needs ~10 small scratch
// buffers (activations, per-subspace code vectors, score matrices). Heap-
// allocating them per sample dominates runtime at the paper's tiny model
// sizes (T=8, D=32), so every query-path entry point takes an
// `InferenceWorkspace&`: a bump allocator over chunked slabs with
// mark/rewind scoping. Steady state performs zero heap allocations — the
// first sample warms the slabs, every later alloc is a pointer bump.
//
// Pointer stability: slabs never move once allocated (overflow adds a new
// chunk instead of growing in place), so buffers handed out before an
// overflow stay valid. `rewind(mark)` releases everything allocated after
// `mark()` without freeing the underlying memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dart::tabular {

/// Static shape summary of a tabular predictor, used to size an
/// InferenceWorkspace once, up front. `float_slots` / `code_slots` are the
/// peak per-sample scratch demands (computed by
/// `TabularPredictor::tabular_arch()` from the actual kernel configs).
struct TabularArch {
  std::size_t seq_len = 0;      ///< T: input sequence length
  std::size_t dim = 0;          ///< D: model (embedding) width
  std::size_t ffn_dim = 0;      ///< DF: FFN hidden width
  std::size_t out_dim = 0;      ///< DO: output bitmap width
  std::size_t heads = 0;        ///< attention heads per layer
  std::size_t layers = 0;       ///< encoder layers
  std::size_t float_slots = 0;  ///< peak float scratch per sample
  std::size_t code_slots = 0;   ///< peak uint32 scratch per sample
};

/// The per-thread inference arena of the file comment: a bump allocator
/// over chunked, pointer-stable slabs (one for floats, one for uint32
/// codes) with mark/rewind scoping. Steady-state query paths allocate
/// exclusively from it — zero heap traffic after the first sample.
class InferenceWorkspace {
 public:
  /// Empty workspace; slabs grow on first use (or call `ensure`).
  InferenceWorkspace() = default;
  /// Pre-sizes the slabs so a forward pass of `arch` never overflows.
  explicit InferenceWorkspace(const TabularArch& arch) { ensure(arch); }

  InferenceWorkspace(const InferenceWorkspace&) = delete;
  InferenceWorkspace& operator=(const InferenceWorkspace&) = delete;
  /// Movable so containers of per-shard workspaces work; moved-from
  /// workspaces are empty.
  InferenceWorkspace(InferenceWorkspace&&) = default;
  InferenceWorkspace& operator=(InferenceWorkspace&&) = default;

  /// Grows the first slab to cover `arch` if needed. Must not be called
  /// while allocations are outstanding (i.e. only at mark depth zero).
  void ensure(const TabularArch& arch);

  /// Bump-allocates `n` floats (uninitialized).
  float* floats(std::size_t n) { return float_slab_.alloc(n); }
  /// Bump-allocates `n` uint32 code slots (uninitialized).
  std::uint32_t* codes(std::size_t n) { return code_slab_.alloc(n); }

  /// A snapshot of both slabs' bump positions; obtained from `mark()` and
  /// handed back to `rewind()`. Markers must be rewound in LIFO order
  /// (stack discipline) — rewinding an outer marker invalidates every
  /// allocation and marker taken after it.
  struct Marker {
    std::size_t float_chunk;  ///< float slab: active chunk index
    std::size_t float_used;   ///< float slab: elements used in that chunk
    std::size_t code_chunk;   ///< code slab: active chunk index
    std::size_t code_used;    ///< code slab: elements used in that chunk
  };

  /// Captures the current bump positions of both slabs.
  Marker mark() const {
    return {float_slab_.chunk_idx_, float_slab_.used_, code_slab_.chunk_idx_, code_slab_.used_};
  }
  /// Releases everything allocated after `m` without freeing memory.
  void rewind(const Marker& m) {
    float_slab_.rewind(m.float_chunk, m.float_used);
    code_slab_.rewind(m.code_chunk, m.code_used);
  }

 private:
  template <typename T>
  struct Slab {
    // Chunks are unique_ptr<T[]> so growth never relocates live buffers.
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<std::size_t> capacities_;
    std::size_t chunk_idx_ = 0;
    std::size_t used_ = 0;

    T* alloc(std::size_t n) {
      while (chunk_idx_ < chunks_.size() && used_ + n > capacities_[chunk_idx_]) {
        ++chunk_idx_;
        used_ = 0;
      }
      if (chunk_idx_ == chunks_.size()) add_chunk(n);
      T* p = chunks_[chunk_idx_].get() + used_;
      used_ += n;
      return p;
    }
    void add_chunk(std::size_t min_cap) {
      std::size_t cap = capacities_.empty() ? 1024 : capacities_.back() * 2;
      if (cap < min_cap) cap = min_cap;
      chunks_.push_back(std::unique_ptr<T[]>(new T[cap]));
      capacities_.push_back(cap);
    }
    void rewind(std::size_t chunk, std::size_t used) {
      chunk_idx_ = chunk;
      used_ = used;
    }
  };

  Slab<float> float_slab_;
  Slab<std::uint32_t> code_slab_;
};

/// The calling thread's reusable workspace. Wrapper entry points
/// (`TabularPredictor::forward`, Tensor-based kernel queries) draw from it
/// so steady-state inference performs no heap allocation; hot paths that
/// manage their own lifetimes pass an explicit workspace instead. Safe
/// because all users follow mark/rewind stack discipline.
InferenceWorkspace& thread_local_workspace();

}  // namespace dart::tabular
