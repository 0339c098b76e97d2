#include "trace/workloads.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "io/bytes.hpp"
#include "trace/trace_file.hpp"

namespace dart::trace {

namespace {

/// Display names go into artifact file names, so they are restricted to the
/// safe set; anything else becomes '-'.
std::string sanitize_name(const std::string& s) {
  std::string out;
  for (char c : s) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_' || c == '-';
    out.push_back(ok ? c : '-');
  }
  return out;
}

/// Parses workload spec text: ',' follows a family name, ':' "tracefile".
common::Spec parse_spec(const std::string& text, char head_sep) {
  return common::Spec::parse(text, head_sep, "workload spec");
}

// ------------------------------------------------------- address-stream layouts

/// How synthetic keys become cache-line accesses. Each op on a key issues
/// the short burst a real data structure would: bucket probes + payload for
/// a hash table, a chain walk for pointer chasing, a root-to-leaf descent
/// for a B-tree, neighbor hops for a graph, or one array touch.
enum class Layout { kDirect, kHash, kChase, kBtree, kGraph };

Layout layout_from_name(const common::Spec& spec, const std::string& name) {
  if (name == "direct") return Layout::kDirect;
  if (name == "hash") return Layout::kHash;
  if (name == "chase") return Layout::kChase;
  if (name == "btree") return Layout::kBtree;
  if (name == "graph") return Layout::kGraph;
  spec.fail("unknown layout '" + name + "' (direct|hash|chase|btree|graph)");
}

// Disjoint virtual regions per structure, so layouts never alias.
constexpr std::uint64_t kArrayBase = 0x100000000000ULL;
constexpr std::uint64_t kBucketBase = 0x200000000000ULL;
constexpr std::uint64_t kPayloadBase = 0x300000000000ULL;
constexpr std::uint64_t kHeapBase = 0x400000000000ULL;
constexpr std::uint64_t kBtreeBase = 0x500000000000ULL;
constexpr std::uint64_t kBtreeLevelStride = 0x10000000000ULL;
constexpr std::uint64_t kGraphBase = 0x600000000000ULL;
/// Synthetic PC region; each (layout step) gets its own PC, spaced like
/// x86 memory instructions, so PC-based features see realistic streams.
constexpr std::uint64_t kPcBase = 0x400000ULL;

/// Emits the access burst for one key operation. `pc_slot` distinguishes op
/// kinds (read/update/insert/scan/rmw) in the PC stream.
struct LayoutMapper {
  Layout layout = Layout::kDirect;
  std::uint64_t items = 0;   ///< structure size in cache lines
  int btree_levels = 2;

  explicit LayoutMapper(Layout l, std::uint64_t n) : layout(l), items(n) {
    // Fanout-256 tree: levels such that 256^levels covers the key space.
    std::uint64_t cap = 256;
    btree_levels = 1;
    while (cap < items && btree_levels < 8) {
      cap *= 256;
      ++btree_levels;
    }
    if (btree_levels < 2) btree_levels = 2;  // root + leaf at minimum
  }

  void emit(MemoryTrace& out, std::uint64_t& instr, std::uint64_t key, bool is_write,
            std::uint64_t pc_slot) const {
    const std::uint64_t slot_pc = kPcBase + pc_slot * 0x40;
    auto push = [&](std::uint64_t pc, std::uint64_t addr, bool w) {
      out.push_back({instr, pc, addr, w});
      instr += 3;  // a handful of non-memory instructions between accesses
    };
    const std::uint64_t pos = key % items;
    switch (layout) {
      case Layout::kDirect:
        push(slot_pc, kArrayBase + pos * 64, is_write);
        break;
      case Layout::kHash: {
        // Open-addressing probe: h picks the bucket, its high bits the
        // cluster length (1-3 consecutive lines), then the payload line.
        const std::uint64_t h = common::mix64(key);
        const std::uint64_t bucket = h % items;
        const std::uint64_t probes = 1 + ((h >> 32) % 3);
        for (std::uint64_t p = 0; p < probes; ++p) {
          push(slot_pc + p * 4, kBucketBase + ((bucket + p) % items) * 64, false);
        }
        push(slot_pc + 16, kPayloadBase + (common::mix64(key ^ 0x7f4a7c15ULL) % items) * 64,
             is_write);
        break;
      }
      case Layout::kChase: {
        // 4-hop chain walk; each hop's node is derived from the previous.
        std::uint64_t node = common::mix64(key) % items;
        for (int d = 0; d < 4; ++d) {
          push(slot_pc + static_cast<std::uint64_t>(d) * 4, kHeapBase + node * 64,
               is_write && d == 3);
          node = common::mix64(node + 0x9e3779b9ULL) % items;
        }
        break;
      }
      case Layout::kBtree: {
        // Root-to-leaf descent: level l is indexed by the key's high
        // base-256 digits, so upper levels stay hot while leaves spread.
        for (int l = 0; l < btree_levels; ++l) {
          const int shift = 8 * (btree_levels - 1 - l);
          const std::uint64_t idx = shift >= 64 ? 0 : (pos >> shift);
          push(slot_pc + static_cast<std::uint64_t>(l) * 4,
               kBtreeBase + static_cast<std::uint64_t>(l) * kBtreeLevelStride + idx * 64,
               is_write && l == btree_levels - 1);
        }
        break;
      }
      case Layout::kGraph: {
        // 4-step neighbor walk from the key's vertex.
        std::uint64_t node = pos;
        for (int s = 0; s < 4; ++s) {
          push(slot_pc + static_cast<std::uint64_t>(s) * 4, kGraphBase + node * 64,
               is_write && s == 3);
          node = common::mix64(node * 2 + static_cast<std::uint64_t>(s) + 1) % items;
        }
        break;
      }
    }
  }

  /// Leaf-only access for range scans (the descent already happened).
  void emit_scan_step(MemoryTrace& out, std::uint64_t& instr, std::uint64_t key,
                      std::uint64_t pc_slot) const {
    const std::uint64_t pos = key % items;
    std::uint64_t addr;
    switch (layout) {
      case Layout::kBtree:
        addr = kBtreeBase + static_cast<std::uint64_t>(btree_levels - 1) * kBtreeLevelStride +
               pos * 64;
        break;
      case Layout::kHash:
        addr = kPayloadBase + pos * 64;
        break;
      case Layout::kChase:
        addr = kHeapBase + pos * 64;
        break;
      case Layout::kGraph:
        addr = kGraphBase + pos * 64;
        break;
      case Layout::kDirect:
      default:
        addr = kArrayBase + pos * 64;
        break;
    }
    out.push_back({instr, kPcBase + pc_slot * 0x40 + 8, addr, false});
    instr += 3;
  }
};

// ------------------------------------------------------------ family builders

/// Key-stream family. Plain families draw keys from one pinned sampler;
/// ycsb-a..f are op mixes (per-mille thresholds, drawn with one bounded
/// integer per op) over a scrambled-zipfian / latest request distribution.
enum class Family {
  kZipfian,
  kScrambled,
  kLatest,
  kExponential,
  kUniform,
  kSequential,
  kYcsbA,
  kYcsbB,
  kYcsbC,
  kYcsbD,
  kYcsbE,
  kYcsbF,
};

const std::vector<std::pair<std::string, Family>>& family_table() {
  static const std::vector<std::pair<std::string, Family>> table = {
      {"zipfian", Family::kZipfian},   {"scrambled", Family::kScrambled},
      {"scrambled-zipfian", Family::kScrambled},  // YCSB's canonical name
      {"latest", Family::kLatest},     {"exponential", Family::kExponential},
      {"uniform", Family::kUniform},   {"sequential", Family::kSequential},
      {"ycsb-a", Family::kYcsbA},      {"ycsb-b", Family::kYcsbB},
      {"ycsb-c", Family::kYcsbC},      {"ycsb-d", Family::kYcsbD},
      {"ycsb-e", Family::kYcsbE},      {"ycsb-f", Family::kYcsbF},
  };
  return table;
}

bool is_ycsb(Family f) { return f >= Family::kYcsbA; }

/// Fully-resolved workload configuration captured by the generator closure.
struct SyntheticConfig {
  Family family = Family::kZipfian;
  Layout layout = Layout::kDirect;
  std::uint64_t items = 0;        ///< footprint / 64
  double theta = common::ZipfianSampler::kDefaultTheta;
  double exp_mean = 0.0;          ///< exponential: mean key offset
  std::uint64_t stride = 1;       ///< sequential: lines per step
  std::uint64_t scan_max = 16;    ///< ycsb-e: max keys per scan
  double write_frac = 0.0;        ///< plain families: update fraction
  bool seed_override = false;
  std::uint64_t seed = 0;
};

/// YCSB A-F op mixes as per-mille thresholds (read / update / insert /
/// scan / read-modify-write), matching the canonical workload definitions.
struct OpMix {
  std::uint32_t read = 0, update = 0, insert = 0, scan = 0, rmw = 0;
};

OpMix mix_for(Family f) {
  switch (f) {
    case Family::kYcsbA: return {500, 500, 0, 0, 0};
    case Family::kYcsbB: return {950, 50, 0, 0, 0};
    case Family::kYcsbC: return {1000, 0, 0, 0, 0};
    case Family::kYcsbD: return {950, 0, 50, 0, 0};  // reads follow "latest"
    case Family::kYcsbE: return {0, 0, 50, 950, 0};
    case Family::kYcsbF: return {500, 0, 0, 0, 500};
    default: return {1000, 0, 0, 0, 0};
  }
}

// PC-slot layout: op kinds get disjoint slots so each op type looks like a
// distinct instruction neighborhood.
constexpr std::uint64_t kSlotRead = 0, kSlotUpdate = 1, kSlotInsert = 2, kSlotScan = 3,
                        kSlotRmw = 4;

MemoryTrace generate_synthetic(const SyntheticConfig& cfg, std::size_t n, std::uint64_t seed) {
  if (cfg.seed_override) seed = cfg.seed;
  common::Rng rng(common::derive_seed(seed, 0x77));
  LayoutMapper mapper(cfg.layout, cfg.items);

  MemoryTrace out;
  out.reserve(n + 8);
  std::uint64_t instr = 1;

  if (!is_ycsb(cfg.family)) {
    // Plain key stream: one sampler, one op per key.
    common::ZipfianSampler zipf(cfg.items, cfg.theta);
    common::ScrambledZipfianSampler scrambled(cfg.items, cfg.theta);
    common::LatestSampler latest(cfg.items, cfg.theta);
    common::ExponentialSampler expo(cfg.items, cfg.exp_mean);
    std::uint64_t step = 0;
    while (out.size() < n) {
      std::uint64_t key = 0;
      switch (cfg.family) {
        case Family::kZipfian: key = zipf.next(rng); break;
        case Family::kScrambled: key = scrambled.next(rng); break;
        case Family::kLatest: key = latest.next(rng, cfg.items); break;
        case Family::kExponential: key = expo.next(rng); break;
        case Family::kUniform: key = rng.below(cfg.items); break;
        case Family::kSequential: key = (step * cfg.stride) % cfg.items; break;
        default: break;
      }
      ++step;
      const bool write = cfg.write_frac > 0.0 && rng.bernoulli(cfg.write_frac);
      mapper.emit(out, instr, key, write, write ? kSlotUpdate : kSlotRead);
    }
  } else {
    const OpMix mix = mix_for(cfg.family);
    const std::uint32_t t_read = mix.read;
    const std::uint32_t t_update = t_read + mix.update;
    const std::uint32_t t_insert = t_update + mix.insert;
    const std::uint32_t t_scan = t_insert + mix.scan;
    common::ScrambledZipfianSampler request(cfg.items, cfg.theta);
    common::LatestSampler latest(cfg.items, cfg.theta);
    // D/E grow the key space by inserting; the layout folds grown keys back
    // into the footprint, so the address region stays bounded.
    std::uint64_t record_count = cfg.items;
    while (out.size() < n) {
      const std::uint32_t r = static_cast<std::uint32_t>(rng.below(1000));
      if (r < t_read) {
        const std::uint64_t key = cfg.family == Family::kYcsbD
                                      ? latest.next(rng, record_count)
                                      : request.next(rng);
        mapper.emit(out, instr, key, false, kSlotRead);
      } else if (r < t_update) {
        mapper.emit(out, instr, request.next(rng), true, kSlotUpdate);
      } else if (r < t_insert) {
        mapper.emit(out, instr, record_count++, true, kSlotInsert);
      } else if (r < t_scan) {
        const std::uint64_t start = request.next(rng);
        const std::uint64_t len = 1 + rng.below(cfg.scan_max);
        mapper.emit(out, instr, start, false, kSlotScan);  // descent
        for (std::uint64_t i = 1; i < len; ++i) {
          mapper.emit_scan_step(out, instr, start + i, kSlotScan);
        }
      } else {
        const std::uint64_t key = request.next(rng);
        mapper.emit(out, instr, key, false, kSlotRmw);
        mapper.emit(out, instr, key, true, kSlotRmw);
      }
    }
  }
  out.resize(n);  // the last op may have overshot by a few burst accesses
  return out;
}

Workload build_synthetic(common::Spec spec) {
  SyntheticConfig cfg;
  bool known = false;
  for (const auto& [name, family] : family_table()) {
    if (name == spec.name()) {
      cfg.family = family;
      known = true;
      break;
    }
  }
  if (!known) {
    std::string families;
    for (const auto& [name, f] : family_table()) families += name + "|";
    families.pop_back();
    spec.fail("unknown family '" + spec.name() + "' (" + families + ")");
  }

  const std::uint64_t footprint = spec.get_size("footprint", 64ULL << 20);
  if (footprint < 64 * 64) spec.fail("parameter 'footprint' must be at least 4K");
  cfg.items = footprint / 64;
  cfg.layout = layout_from_name(
      spec, common::lower(spec.get_string("layout", is_ycsb(cfg.family) ? "hash" : "direct")));
  cfg.theta = spec.get_double("theta", common::ZipfianSampler::kDefaultTheta);
  if (cfg.theta <= 0.0 || cfg.theta >= 1.0) spec.fail("parameter 'theta' must be in (0, 1)");
  if (cfg.family == Family::kExponential) {
    cfg.exp_mean = spec.get_double("mean", static_cast<double>(cfg.items) / 10.0);
    if (cfg.exp_mean <= 0.0) spec.fail("parameter 'mean' must be > 0");
  }
  if (cfg.family == Family::kSequential) {
    cfg.stride = spec.get_size("stride", 1);
    if (cfg.stride == 0) spec.fail("parameter 'stride' must be > 0");
  }
  if (cfg.family == Family::kYcsbE) {
    cfg.scan_max = spec.get_size("scan", 16);
    if (cfg.scan_max == 0) spec.fail("parameter 'scan' must be > 0");
  }
  if (!is_ycsb(cfg.family)) {
    cfg.write_frac = spec.get_double("write", 0.0);
    if (cfg.write_frac > 1.0) spec.fail("parameter 'write' must be in [0, 1]");
  }
  if (spec.has("seed")) {
    cfg.seed_override = true;
    cfg.seed = spec.get_size("seed", 0);
  }
  const std::string label = spec.get_string("label", "");
  spec.reject_unused();

  const std::string name = sanitize_name(label.empty() ? spec.name() : label);
  const std::string canonical = "trace:" + spec.canonical();
  return Workload(name, canonical,
                  [cfg](std::size_t n, std::uint64_t seed) {
                    return generate_synthetic(cfg, n, seed);
                  });
}

Workload build_tracefile(common::Spec spec) {
  const std::string path = spec.get_string("path", "");
  if (path.empty()) spec.fail("missing required parameter 'path'");
  const std::string label = spec.get_string("label", "");
  spec.reject_unused();
  std::string name = label;
  if (name.empty()) {
    // Default display name: the file's stem.
    const std::size_t slash = path.find_last_of("/\\");
    name = slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = name.rfind('.');
    if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  }
  return Workload(sanitize_name(name), spec.canonical(),
                  [path](std::size_t n, std::uint64_t /*seed*/) {
                    MemoryTrace file = read_trace_file(path);
                    if (file.empty()) {
                      throw std::invalid_argument("tracefile workload: '" + path + "' is empty");
                    }
                    // Wrap shorter files: replay with continued instr_ids so
                    // downstream windows see a continuous stream.
                    MemoryTrace out;
                    out.reserve(n);
                    const std::uint64_t span = file.back().instr_id + 4;
                    for (std::size_t i = 0; out.size() < n; ++i) {
                      MemoryAccess a = file[i % file.size()];
                      a.instr_id += span * (i / file.size());
                      out.push_back(a);
                    }
                    return out;
                  });
}

}  // namespace

// -------------------------------------------------------------------- Workload

Workload::Workload(App app)
    : name_(app_name(app)), spec_(app_name(app)),
      gen_([app](std::size_t n, std::uint64_t seed) {
        return dart::trace::generate(app, n, seed);
      }) {}

Workload Workload::parse(const std::string& text) {
  const std::string s = common::trim(text);
  if (common::lower(s.substr(0, 10)) == "tracefile:") return build_tracefile(parse_spec(s, ':'));
  if (common::lower(s.substr(0, 6)) == "trace:") {
    return build_synthetic(parse_spec(s.substr(6), ','));
  }
  // A bare name: Table IV app names take precedence, then family names.
  try {
    return Workload(app_from_name(s));
  } catch (const std::invalid_argument&) {
  }
  return build_synthetic(parse_spec(s, ','));
}

std::vector<std::string> Workload::known_families() {
  std::vector<std::string> names;
  for (const auto& [name, f] : family_table()) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

MemoryTrace Workload::generate(std::size_t n, std::uint64_t seed) const {
  return gen_(n, seed);
}

std::vector<Workload> parse_workload_list(const std::string& text) {
  std::vector<Workload> out;
  for (const std::string& s : common::split_spec_list(text)) out.push_back(Workload::parse(s));
  return out;
}

std::uint64_t trace_content_hash(const MemoryTrace& trace) {
  // Hash in bounded chunks through the trace-file record encoding, so the
  // hash is exactly the FNV-1a of the .dtrc record region.
  std::uint64_t h = io::kFnv1aBasis;
  io::ByteWriter w;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const MemoryAccess& a = trace[i];
    w.u64(a.instr_id);
    w.u64(a.pc);
    w.u64(a.addr);
    w.u8(a.is_write ? 1 : 0);
    if (w.size() >= 1 << 16 || i + 1 == trace.size()) {
      h = io::fnv1a64(w.bytes().data(), w.size(), h);
      w = io::ByteWriter();
    }
  }
  return h;
}

}  // namespace dart::trace
