#include "trace/generators.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "common/text.hpp"

namespace dart::trace {

namespace {

constexpr std::uint64_t kBlock = 64;
constexpr std::uint64_t kPage = 4096;

/// Shared emission helper: advances the instruction counter by a random gap
/// modeling the non-memory instructions between accesses. Workloads with
/// more compute per access pass a wider gap range, which directly sets the
/// LLC demand rate the prefetchers must race against.
class Emitter {
 public:
  Emitter(std::uint64_t seed, std::int64_t gap_lo, std::int64_t gap_hi)
      : rng_(seed), gap_lo_(gap_lo), gap_hi_(gap_hi) {}

  void emit(MemoryTrace& out, std::uint64_t pc, std::uint64_t addr, bool write = false) {
    instr_ += 1 + static_cast<std::uint64_t>(rng_.uniform_int(gap_lo_, gap_hi_));
    out.push_back({instr_, pc, addr, write});
  }

  common::Rng& rng() { return rng_; }

 private:
  common::Rng rng_;
  std::int64_t gap_lo_;
  std::int64_t gap_hi_;
  std::uint64_t instr_ = 0;
};

/// Distinct, stable fake PC for logical instruction site `i`.
std::uint64_t pc_of(std::uint64_t base, std::uint64_t i) { return base + 4 * i; }

}  // namespace

MemoryTrace gen_multi_stream(std::size_t n, std::size_t streams, std::size_t stride_elems,
                             std::size_t element_bytes, std::uint64_t region_bytes,
                             std::uint64_t seed) {
  MemoryTrace out;
  out.reserve(n);
  Emitter em(seed, 1, 7);
  const std::uint64_t region_per_stream = region_bytes / streams;
  std::vector<std::uint64_t> cursor(streams);
  std::vector<std::uint64_t> base(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    base[s] = 0x10000000ULL + s * region_per_stream;
    // Seed-dependent starting phase so different seeds give different traces.
    cursor[s] = static_cast<std::uint64_t>(
        em.rng().uniform_int(0, static_cast<std::int64_t>(region_per_stream / element_bytes) - 1));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = i % streams;
    const std::uint64_t offset = (cursor[s] * stride_elems * element_bytes) % region_per_stream;
    em.emit(out, pc_of(0x400000, s), base[s] + offset);
    ++cursor[s];
    // Rare stream restart at a fresh offset (loop boundaries).
    if (em.rng().bernoulli(0.0005)) {
      cursor[s] = static_cast<std::uint64_t>(em.rng().uniform_int(
          0, static_cast<std::int64_t>(region_per_stream / element_bytes) - 1));
    }
  }
  return out;
}

MemoryTrace gen_pointer_chase(std::size_t n, std::size_t nodes, std::uint64_t seed) {
  MemoryTrace out;
  out.reserve(n);
  Emitter em(seed, 7, 23);  // graph codes do real work between dereferences
  // Nodes are laid out in allocation order (2 blocks apart) — successor
  // pointers mostly follow allocation locality (small, learnable deltas)
  // but cross edges and fresh traversals jump anywhere, which is what
  // explodes mcf's delta cardinality in Table IV while leaving part of the
  // stream predictable (teacher F1 ~0.55 in the paper).
  std::vector<std::uint64_t> node_addr(nodes);
  std::vector<std::uint32_t> next(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    node_addr[i] = 0x20000000ULL + static_cast<std::uint64_t>(i) * 2 * kBlock;
    if (em.rng().bernoulli(0.6) && i + 1 < nodes) {
      next[i] = static_cast<std::uint32_t>(i + 1);  // allocation locality
    } else {
      next[i] = static_cast<std::uint32_t>(
          em.rng().uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    }
  }
  std::uint32_t cur = 0;
  for (std::size_t i = 0; i < n; ++i) {
    em.emit(out, pc_of(0x500000, 0), node_addr[cur]);
    if (em.rng().bernoulli(0.15)) {
      cur = static_cast<std::uint32_t>(
          em.rng().uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    } else {
      cur = next[cur];
    }
  }
  return out;
}

MemoryTrace gen_grid_sweep(std::size_t n, std::size_t rows, std::size_t cols,
                           std::size_t arrays, std::size_t element_bytes, std::uint64_t seed) {
  MemoryTrace out;
  out.reserve(n);
  Emitter em(seed, 2, 10);
  const std::uint64_t array_bytes = static_cast<std::uint64_t>(rows) * cols * element_bytes;
  // Seed-dependent starting phase.
  std::size_t r = static_cast<std::size_t>(em.rng().uniform_int(0, static_cast<std::int64_t>(rows) - 1));
  std::size_t c = 0;
  for (std::size_t i = 0; out.size() < n; ++i) {
    const std::size_t a = i % arrays;
    const std::uint64_t base = 0x30000000ULL + a * (array_bytes + 8 * kPage);
    const std::uint64_t addr =
        base + (static_cast<std::uint64_t>(r) * cols + c) * element_bytes;
    em.emit(out, pc_of(0x600000, a), addr, /*is_write=*/a + 1 == arrays);
    // Stencil neighbor touch: occasionally read the row above/below, which
    // contributes the +/- row-width deltas real grid codes show.
    if (a == 0 && out.size() < n && em.rng().bernoulli(0.08)) {
      const std::size_t rn = (r + 1) % rows;
      em.emit(out, pc_of(0x600000, 7),
              base + (static_cast<std::uint64_t>(rn) * cols + c) * element_bytes);
    }
    if (a + 1 == arrays) {
      if (++c >= cols) {
        c = 0;
        if (++r >= rows) r = 0;
      }
    }
  }
  return out;
}

MemoryTrace gen_mixed(std::size_t n, double sequential_frac, std::size_t hot_pages,
                      std::uint64_t seed) {
  MemoryTrace out;
  out.reserve(n);
  Emitter em(seed, 2, 10);
  const std::uint64_t region = static_cast<std::uint64_t>(hot_pages) * kPage;
  std::uint64_t cursor = 0x40000000ULL;
  constexpr std::uint64_t kElem = 8;  // word-granular sequential scans
  for (std::size_t i = 0; i < n;) {
    if (em.rng().uniform() < sequential_frac) {
      // Sequential burst of 16-128 words.
      const auto burst = static_cast<std::size_t>(em.rng().uniform_int(16, 128));
      for (std::size_t b = 0; b < burst && i < n; ++b, ++i) {
        em.emit(out, pc_of(0x700000, 1), cursor);
        cursor += kElem;
        if (cursor >= 0x40000000ULL + region) cursor = 0x40000000ULL;
      }
    } else {
      // Skewed random jump: hot pages get most of the traffic.
      const std::size_t page = em.rng().zipf_like(hot_pages, 0.999);
      const auto line = static_cast<std::uint64_t>(em.rng().uniform_int(0, 63));
      cursor = 0x40000000ULL + page * kPage + line * kBlock;
      em.emit(out, pc_of(0x700000, 2), cursor);
      ++i;
    }
  }
  return out;
}

namespace {

/// milc-like: short strided sweeps, each over a randomly chosen page of a
/// large footprint (many pages, moderate deltas).
MemoryTrace gen_page_sweeps(std::size_t n, std::size_t total_pages, std::size_t sweep_len,
                            std::size_t stride_blocks, std::uint64_t seed) {
  MemoryTrace out;
  out.reserve(n);
  Emitter em(seed, 7, 19);
  for (std::size_t i = 0; i < n;) {
    const auto page = static_cast<std::uint64_t>(
        em.rng().uniform_int(0, static_cast<std::int64_t>(total_pages) - 1));
    std::uint64_t addr = 0x50000000ULL + page * kPage;
    for (std::size_t s = 0; s < sweep_len && i < n; ++s, ++i) {
      em.emit(out, pc_of(0x800000, s % 4), addr);
      addr += stride_blocks * kBlock;
    }
  }
  return out;
}

/// wrf-like: nested loops cycling through several strides over a moderate
/// footprint.
MemoryTrace gen_nested_strides(std::size_t n, std::size_t pages,
                               const std::vector<std::size_t>& strides, std::uint64_t seed) {
  MemoryTrace out;
  out.reserve(n);
  Emitter em(seed, 4, 14);
  const std::uint64_t region = static_cast<std::uint64_t>(pages) * kPage;
  std::uint64_t cursor = static_cast<std::uint64_t>(
                             em.rng().uniform_int(0, static_cast<std::int64_t>(pages) - 1)) *
                         kPage;
  std::size_t phase = 0, count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t addr = 0x60000000ULL + (cursor % region);
    em.emit(out, pc_of(0x900000, phase), addr);
    cursor += strides[phase] * kBlock;
    if (++count >= 512) {
      count = 0;
      phase = (phase + 1) % strides.size();
      // New loop nest starts at a page-aligned random offset.
      cursor = static_cast<std::uint64_t>(
                   em.rng().uniform_int(0, static_cast<std::int64_t>(pages) - 1)) *
               kPage;
    }
  }
  return out;
}

}  // namespace

const std::vector<App>& all_apps() {
  static const std::vector<App> apps = {App::kBwaves, App::kMilc,       App::kLeslie3d,
                                        App::kLibquantum, App::kGcc,    App::kMcf,
                                        App::kLbm,    App::kWrf};
  return apps;
}

std::string app_name(App app) {
  switch (app) {
    case App::kBwaves: return "410.bwaves";
    case App::kMilc: return "433.milc";
    case App::kLeslie3d: return "437.leslie3d";
    case App::kLibquantum: return "462.libquantum";
    case App::kGcc: return "602.gcc";
    case App::kMcf: return "605.mcf";
    case App::kLbm: return "619.lbm";
    case App::kWrf: return "621.wrf";
  }
  return "unknown";
}

App app_from_name(const std::string& name) {
  for (App app : all_apps()) {
    const std::string full = app_name(app);
    if (name == full || full.find("." + name) != std::string::npos ||
        full.substr(4) == name) {
      return app;
    }
  }
  throw common::InputError("unknown app: " + name);
}

MemoryTrace generate(App app, std::size_t n, std::uint64_t seed) {
  switch (app) {
    case App::kBwaves:
      // Multi-stream stencil over doubles: regular, word-granular.
      return gen_multi_stream(n, /*streams=*/8, /*stride_elems=*/1, /*element=*/8,
                              /*region=*/15ULL << 20, seed);
    case App::kMilc:
      // Large footprint (many pages), short strided sweeps.
      return gen_page_sweeps(n, /*pages=*/20000, /*sweep=*/12, /*stride=*/2, seed);
    case App::kLeslie3d:
      // Small grid, few pages, few deltas; 16-byte elements.
      return gen_grid_sweep(n, /*rows=*/120, /*cols=*/900, /*arrays=*/2, /*element=*/16, seed);
    case App::kLibquantum:
      // Near-pure sequential word scan over a flat array.
      return gen_multi_stream(n, /*streams=*/1, /*stride_elems=*/1, /*element=*/8,
                              /*region=*/22ULL << 20, seed);
    case App::kGcc:
      // Mixed sequential bursts + skewed jumps.
      return gen_mixed(n, /*sequential=*/0.75, /*hot_pages=*/3400, seed);
    case App::kMcf:
      // Pointer chasing with random jumps: delta cardinality explodes.
      return gen_pointer_chase(n, /*nodes=*/60000, seed);
    case App::kLbm:
      // Structured grid, two arrays, tiny delta set; 16-byte elements.
      return gen_grid_sweep(n, /*rows=*/120, /*cols=*/2000, /*arrays=*/2, /*element=*/16, seed);
    case App::kWrf:
      // Nested loops with several strides.
      return gen_nested_strides(n, /*pages=*/3300, {1, 2, 7, 13}, seed);
  }
  throw std::invalid_argument("generate: unknown app");
}

}  // namespace dart::trace
