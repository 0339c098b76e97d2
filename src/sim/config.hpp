// Simulation parameters (the paper's Table III). One core is simulated per
// workload (the paper reports per-application results).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dart::sim {

/// Simulator-semantics generation. Part of every sweep cell key, so a result
/// store written by an older engine is never reused: bump it whenever
/// SimStats definitions or event ordering change (DESIGN.md §8).
inline constexpr std::uint32_t kEngineGeneration = 2;

struct SimConfig {
  // CPU: 4 GHz, 4-wide OoO, 256-entry ROB, 64-entry LSQ.
  std::size_t issue_width = 4;
  std::size_t rob_entries = 256;
  std::size_t lsq_entries = 64;

  // L1 D-cache: 64 KB, 12-way, 16-entry MSHR, 5-cycle.
  std::size_t l1_size = 64 * 1024;
  std::size_t l1_ways = 12;  // rounded to 16 sets x 12 ways? kept associative
  std::size_t l1_mshrs = 16;
  std::size_t l1_latency = 5;

  // L2: 1 MB, 8-way, 32-entry MSHR, 10-cycle.
  std::size_t l2_size = 1024 * 1024;
  std::size_t l2_ways = 8;
  std::size_t l2_mshrs = 32;
  std::size_t l2_latency = 10;

  // LLC: 8 MB, 16-way, 64-entry MSHR, 20-cycle.
  std::size_t llc_size = 8 * 1024 * 1024;
  std::size_t llc_ways = 16;
  std::size_t llc_mshrs = 64;
  std::size_t llc_latency = 20;

  // DRAM: tRP = tRCD = tCAS = 12.5 ns at 4 GHz -> 50 cycles each; a row miss
  // pays all three. We charge a flat average access latency.
  std::size_t dram_latency = 150;

  // Prefetch engine limits.
  std::size_t prefetch_queue = 128;  ///< max in-flight prefetches
  std::size_t max_degree = 16;       ///< prefetches accepted per trigger
};

}  // namespace dart::sim
