// Chaos tests for the crash-safe resumable sweep engine (DESIGN.md §13):
// the durable result store (torn-tail recovery, injected tail corruption,
// crash latching, compaction), the retry/quarantine harness (fail-cell,
// slow-cell + wall-clock timeout), crash-and-resume determinism (the
// resumed merged CSV is byte-identical to an uninterrupted run and reuses
// committed cells), and the sharded-replay merge contract (bit-exact under
// full-prefix warmup, bounded under partial warmup).
//
// The invariant under test throughout: every grid cell resolves to exactly
// one of {done, failed, skipped} and the three counts sum to the grid size
// — faults may slow, quarantine, or crash the sweep, but may never lose a
// cell silently. Runs under ThreadSanitizer in the serve-chaos CI job.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/result_store.hpp"
#include "sim/registry.hpp"
#include "sim/shard_replay.hpp"
#include "sim/simulator.hpp"
#include "trace/workloads.hpp"

namespace dart::core {
namespace {

/// Fresh per-test scratch directory under the system temp root.
std::string scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("dart_sweep_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

CellRecord make_record(std::uint64_t key, const std::string& app, const std::string& pf,
                       std::uint64_t issued) {
  CellRecord rec;
  rec.key = key;
  rec.status = CellStatus::kDone;
  rec.attempts = 1;
  rec.cell.spec = pf;
  rec.cell.prefetcher = pf;
  rec.cell.app = app;
  rec.cell.baseline_ipc = 1.25;
  rec.cell.ipc_improvement = 0.0625;
  rec.cell.stats.pf_issued = issued;
  rec.cell.stats.instructions = 1000 + issued;
  rec.cell.stats.cycles = 2000 + issued;
  rec.cell.status = rec.status;
  rec.cell.attempts = rec.attempts;
  return rec;
}

/// A deliberately tiny grid: 2 synthetic workloads x 2 rule-based
/// prefetchers, no NN training anywhere, a few thousand replayed accesses.
ExperimentSpec tiny_grid() {
  ExperimentSpec spec;
  spec.workloads = {"trace:sequential,footprint=1M,stride=4", "trace:uniform,footprint=1M"};
  spec.prefetchers = {"BO", "ISB"};
  spec.pipeline = PipelineOptions::bench_defaults();
  spec.pipeline.raw_accesses = 4000;
  spec.pipeline.prep.max_samples = 200;
  spec.parallel = false;  // grid-order commits: deterministic crash points
  spec.sweep.cell_retries = 0;
  spec.sweep.backoff_ms = 0;
  return spec;
}

class SweepChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { common::fault_injector().clear(); }
};

// ------------------------------------------------------------- result store

TEST_F(SweepChaosTest, StoreRoundTripAndLastWins) {
  const std::string dir = scratch_dir("roundtrip");
  {
    ResultStore store(dir);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.recovery().truncated);
    store.append(make_record(1, "app-a", "BO", 10));
    store.append(make_record(2, "app-a", "ISB", 20));
    store.append(make_record(1, "app-a", "BO", 30));  // supersedes key 1
    EXPECT_EQ(store.size(), 2u);
  }
  ResultStore store(dir);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.recovery().records, 3u);  // all three frames intact
  EXPECT_FALSE(store.recovery().truncated);
  CellRecord rec;
  ASSERT_TRUE(store.find(1, &rec));
  EXPECT_EQ(rec.cell.stats.pf_issued, 30u);  // last record won
  EXPECT_EQ(rec.cell.prefetcher, "BO");
  EXPECT_EQ(rec.cell.baseline_ipc, 1.25);
  ASSERT_TRUE(store.find(2, &rec));
  EXPECT_EQ(rec.cell.stats.pf_issued, 20u);
  EXPECT_FALSE(store.find(3, &rec));
}

TEST_F(SweepChaosTest, StoreTornTailTruncatedNeverRefused) {
  const std::string dir = scratch_dir("torntail");
  {
    ResultStore store(dir);
    store.append(make_record(1, "a", "BO", 1));
    store.append(make_record(2, "a", "ISB", 2));
  }
  // Simulate a crash mid-append: garbage after the last intact record.
  const std::string log = dir + "/results.log";
  {
    std::ofstream out(log, std::ios::binary | std::ios::app);
    const char garbage[] = "DRS1\x40\x00\x00\x00torn";  // valid magic, short body
    out.write(garbage, sizeof(garbage) - 1);
  }
  {
    ResultStore store(dir);
    EXPECT_EQ(store.size(), 2u);  // both real records recovered
    EXPECT_TRUE(store.recovery().truncated);
    EXPECT_GT(store.recovery().dropped_bytes, 0u);
    // The store stays writable after recovery.
    store.append(make_record(3, "a", "BO", 3));
  }
  // The torn tail was physically truncated: the next open is clean.
  ResultStore store(dir);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_FALSE(store.recovery().truncated);
}

TEST_F(SweepChaosTest, StoreCorruptTailFaultDropsLastRecordOnly) {
  const std::string dir = scratch_dir("corrupttail");
  {
    ResultStore store(dir);
    store.append(make_record(1, "a", "BO", 1));
    store.append(make_record(2, "a", "ISB", 2));
    store.append(make_record(3, "a", "BO", 3));
  }
  common::fault_injector().install("corrupt-store-tail:bytes=5");
  {
    ResultStore store(dir);
    EXPECT_EQ(store.size(), 2u);  // the chopped record is gone, rest intact
    EXPECT_TRUE(store.recovery().truncated);
    EXPECT_EQ(common::fault_injector().counters().stores_mutated, 1u);
    CellRecord rec;
    EXPECT_TRUE(store.find(1, &rec));
    EXPECT_TRUE(store.find(2, &rec));
    EXPECT_FALSE(store.find(3, &rec));
  }
  common::fault_injector().clear();
  ResultStore store(dir);  // recovery truncated the file: clean reopen
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.recovery().truncated);
}

TEST_F(SweepChaosTest, StoreCrashAfterCommitLatchesAndSurvivesResume) {
  const std::string dir = scratch_dir("crashlatch");
  common::fault_injector().install("crash-after-commit:after=2");
  {
    ResultStore store(dir);
    store.append(make_record(1, "a", "BO", 1));  // commit #1: fine
    EXPECT_THROW(store.append(make_record(2, "a", "ISB", 2)), SweepCrash);
    // The latch: every further append fails too (parallel workers stop).
    EXPECT_THROW(store.append(make_record(3, "a", "BO", 3)), SweepCrash);
    EXPECT_EQ(common::fault_injector().counters().crashes, 1u);
  }
  common::fault_injector().clear();
  // Both commits that reached the fsync are durable — including the one
  // whose append "crashed" (the fault fires after the record hit disk).
  ResultStore store(dir);
  EXPECT_EQ(store.size(), 2u);
  CellRecord rec;
  EXPECT_TRUE(store.find(2, &rec));
}

TEST_F(SweepChaosTest, StoreCompactionDropsSupersededRecords) {
  const std::string dir = scratch_dir("compact");
  ResultStore store(dir);
  for (int i = 0; i < 8; ++i) {
    store.append(make_record(1, "a", "BO", static_cast<std::uint64_t>(i)));
  }
  store.append(make_record(2, "a", "ISB", 99));
  const auto before = std::filesystem::file_size(store.log_path());
  store.compact();
  const auto after = std::filesystem::file_size(store.log_path());
  EXPECT_LT(after, before);
  EXPECT_EQ(store.size(), 2u);
  // Appending after compaction still works and survives a reopen.
  store.append(make_record(3, "a", "BO", 7));
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.size(), 3u);
  CellRecord rec;
  ASSERT_TRUE(reopened.find(1, &rec));
  EXPECT_EQ(rec.cell.stats.pf_issued, 7u);  // pre-compaction last record
}

// -------------------------------------------------------- retry/quarantine

TEST_F(SweepChaosTest, FailCellQuarantinesWithoutAbortingSweep) {
  ExperimentSpec spec = tiny_grid();
  spec.sweep.store_dir = scratch_dir("quarantine");
  spec.sweep.cell_retries = 1;
  common::fault_injector().install("fail-cell:match=ISB");
  ExperimentResult result = ExperimentRunner(spec).run();

  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.count(CellStatus::kDone), 2u);
  EXPECT_EQ(result.count(CellStatus::kFailed), 2u);
  EXPECT_EQ(result.count(CellStatus::kSkipped), 0u);
  for (const auto& c : result.cells) {
    if (c.spec == "ISB") {
      EXPECT_EQ(c.status, CellStatus::kFailed);
      EXPECT_EQ(c.attempts, 2u);  // first try + one retry, both injected
      EXPECT_NE(c.error.find("fail-cell"), std::string::npos);
      EXPECT_EQ(c.stats.pf_issued, 0u);  // quarantined cells carry no stats
    } else {
      EXPECT_EQ(c.status, CellStatus::kDone);
      EXPECT_EQ(c.attempts, 1u);
      EXPECT_TRUE(c.error.empty());
    }
  }
  EXPECT_EQ(common::fault_injector().counters().cells_failed, 4u);  // 2 cells x 2 attempts

  // Quarantined cells are NOT reused on resume: they get a fresh chance,
  // and with the fault cleared they complete and supersede their record.
  common::fault_injector().clear();
  ExperimentResult resumed = ExperimentRunner(spec).run();
  EXPECT_EQ(resumed.count(CellStatus::kSkipped), 2u);  // the 2 done cells
  EXPECT_EQ(resumed.count(CellStatus::kDone), 2u);     // re-run ISB cells
  EXPECT_EQ(resumed.count(CellStatus::kFailed), 0u);
}

TEST_F(SweepChaosTest, FailCellOnceThenRetrySucceeds) {
  ExperimentSpec spec = tiny_grid();
  spec.sweep.cell_retries = 2;
  common::fault_injector().install("fail-cell:match=sequential|BO,times=1");
  ExperimentResult result = ExperimentRunner(spec).run();
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.count(CellStatus::kDone), 4u);
  EXPECT_EQ(result.count(CellStatus::kFailed), 0u);
  const ExperimentCell* cell = result.find("BO", "sequential");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->attempts, 2u);  // failed once, succeeded on retry
  EXPECT_GT(cell->stats.instructions, 0u);
}

TEST_F(SweepChaosTest, SlowCellTimeoutQuarantines) {
  ExperimentSpec spec = tiny_grid();
  spec.sweep.cell_timeout_ms = 60;
  // Delay one cell far past the timeout; the attempt thread is abandoned,
  // reaped before run() returns, and the cell is quarantined loudly.
  common::fault_injector().install("slow-cell:match=uniform|ISB,ms=400");
  ExperimentResult result = ExperimentRunner(spec).run();
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.count(CellStatus::kDone), 3u);
  EXPECT_EQ(result.count(CellStatus::kFailed), 1u);
  const ExperimentCell* cell = result.find("ISB", "uniform");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->status, CellStatus::kFailed);
  EXPECT_NE(cell->error.find("timed out"), std::string::npos);
  EXPECT_GE(common::fault_injector().counters().cells_delayed, 1u);
}

// ------------------------------------------------------- crash-and-resume

TEST_F(SweepChaosTest, CrashResumeMergedOutputByteIdentical) {
  // The clean, uninterrupted run: the reference output.
  ExperimentSpec spec = tiny_grid();
  const std::string clean_csv = scratch_dir("resume_csvs") + "/clean.csv";
  std::filesystem::create_directories(std::filesystem::path(clean_csv).parent_path());
  {
    ExperimentSpec clean = spec;
    clean.sweep.store_dir = scratch_dir("resume_clean_store");
    ExperimentResult result = ExperimentRunner(clean).run();
    ASSERT_EQ(result.count(CellStatus::kDone), 4u);
    ASSERT_TRUE(result.write_csv(clean_csv));
  }
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  const std::string clean_bytes = slurp(clean_csv);
  ASSERT_FALSE(clean_bytes.empty());

  // Kill the sweep after each possible commit point, resume, and demand
  // byte-identical merged output plus actual reuse of committed cells.
  for (int after = 1; after <= 3; ++after) {
    ExperimentSpec crashing = spec;
    crashing.sweep.store_dir =
        scratch_dir("resume_store_" + std::to_string(after));
    common::fault_injector().install("crash-after-commit:after=" + std::to_string(after));
    EXPECT_THROW(ExperimentRunner(crashing).run(), SweepCrash) << "after=" << after;
    common::fault_injector().clear();

    ExperimentResult resumed = ExperimentRunner(crashing).run();
    EXPECT_EQ(resumed.cells.size(), 4u);
    // Everything committed before the crash is reused, the rest re-run.
    EXPECT_EQ(resumed.count(CellStatus::kSkipped), static_cast<std::size_t>(after));
    EXPECT_EQ(resumed.count(CellStatus::kDone), static_cast<std::size_t>(4 - after));
    EXPECT_EQ(resumed.count(CellStatus::kFailed), 0u);
    EXPECT_GE(resumed.count(CellStatus::kSkipped), 1u);

    const std::string resumed_csv =
        scratch_dir("resume_csv_" + std::to_string(after)) + "/resumed.csv";
    std::filesystem::create_directories(std::filesystem::path(resumed_csv).parent_path());
    ASSERT_TRUE(resumed.write_csv(resumed_csv));
    EXPECT_EQ(slurp(resumed_csv), clean_bytes) << "after=" << after;
  }
}

TEST_F(SweepChaosTest, QuantModeJoinsTheCellKey) {
  // The `dart` specs inherit DART_QUANT when they omit quant=, so a store
  // written under int8 must not answer for a rerun under off.
  ExperimentSpec spec = tiny_grid();
  spec.workloads = {"trace:sequential,footprint=1M,stride=4"};
  spec.prefetchers = {"BO", "DART-S"};
  spec.pipeline.teacher_arch.layers = 1;
  spec.pipeline.teacher_arch.dim = 16;
  spec.pipeline.teacher_arch.heads = 2;
  spec.pipeline.teacher_arch.ffn_dim = 32;
  spec.pipeline.teacher_train.epochs = 0;  // untrained models: keys are under test
  spec.pipeline.student_train.epochs = 0;
  spec.pipeline.tab.tables = tabular::TableConfig::uniform(8, 1);
  spec.pipeline.tab.max_train_samples = 100;
  spec.sweep.store_dir = scratch_dir("quantkey");

  const char* saved = std::getenv("DART_QUANT");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("DART_QUANT", "int8", 1);
  const ExperimentResult int8 = ExperimentRunner(spec).run();
  ::setenv("DART_QUANT", "off", 1);
  const ExperimentResult off = ExperimentRunner(spec).run();
  const ExperimentResult off_again = ExperimentRunner(spec).run();
  if (saved != nullptr) {
    ::setenv("DART_QUANT", saved_value.c_str(), 1);
  } else {
    ::unsetenv("DART_QUANT");
  }

  EXPECT_EQ(int8.count(CellStatus::kDone), 2u);
  const ExperimentCell* dart = off.find("DART-S", "sequential");
  ASSERT_NE(dart, nullptr);
  EXPECT_EQ(dart->status, CellStatus::kDone);  // re-simulated, not reused
  EXPECT_EQ(off.count(CellStatus::kSkipped), 0u);
  EXPECT_EQ(off_again.count(CellStatus::kSkipped), 2u);  // same mode: reused
}

// ------------------------------------------------------------ sharded replay

TEST_F(SweepChaosTest, ShardedReplayFullWarmupBitExact) {
  const trace::Workload workload = trace::Workload::parse("trace:zipfian,footprint=4M");
  const trace::MemoryTrace trace = workload.generate(20000, 42);
  const sim::SimConfig config = PipelineOptions::bench_defaults().sim;

  sim::PrefetcherContext ctx;
  const auto bo_factory = [&ctx] { return sim::make_prefetcher("BO", ctx); };
  const sim::SimStats unsharded = [&] {
    auto pf = bo_factory();
    return sim::Simulator(config).run(trace, pf.get());
  }();

  for (std::size_t shards : {1u, 2u, 4u, 7u}) {
    sim::ShardReplayOptions options;
    options.shards = shards;
    options.warmup = sim::kFullWarmup;
    const sim::ShardedStats sharded = sim::run_sharded(config, trace, bo_factory, options);
    EXPECT_EQ(sharded.shards.size(), shards);
    // The pinned telescoping merge: bit-exact on EVERY field.
    EXPECT_EQ(sharded.merged.instructions, unsharded.instructions) << shards;
    EXPECT_EQ(sharded.merged.cycles, unsharded.cycles) << shards;
    EXPECT_EQ(sharded.merged.llc_accesses, unsharded.llc_accesses) << shards;
    EXPECT_EQ(sharded.merged.llc_hits, unsharded.llc_hits) << shards;
    EXPECT_EQ(sharded.merged.llc_demand_misses, unsharded.llc_demand_misses) << shards;
    EXPECT_EQ(sharded.merged.pf_issued, unsharded.pf_issued) << shards;
    EXPECT_EQ(sharded.merged.pf_useful, unsharded.pf_useful) << shards;
    EXPECT_EQ(sharded.merged.pf_late, unsharded.pf_late) << shards;
    EXPECT_EQ(sharded.merged.pf_dropped, unsharded.pf_dropped) << shards;
    // Shard windows tile the trace exactly.
    std::size_t covered = 0;
    for (const auto& s : sharded.shards) {
      EXPECT_EQ(s.begin, covered);
      covered = s.end;
    }
    EXPECT_EQ(covered, trace.size());
  }
  // Baseline (no prefetcher) shards exactly too.
  const sim::SimStats base = sim::Simulator(config).run(trace, nullptr);
  sim::ShardReplayOptions options;
  options.shards = 4;
  const sim::ShardedStats sharded = sim::run_sharded(config, trace, nullptr, options);
  EXPECT_EQ(sharded.merged.cycles, base.cycles);
  EXPECT_EQ(sharded.merged.llc_accesses, base.llc_accesses);
}

TEST_F(SweepChaosTest, ShardedReplayPartialWarmupWithinDocumentedBound) {
  const trace::Workload workload = trace::Workload::parse("trace:zipfian,footprint=4M");
  const trace::MemoryTrace trace = workload.generate(20000, 42);
  const sim::SimConfig config = PipelineOptions::bench_defaults().sim;

  sim::PrefetcherContext ctx;
  const auto bo_factory = [&ctx] { return sim::make_prefetcher("BO", ctx); };
  const sim::SimStats unsharded = [&] {
    auto pf = bo_factory();
    return sim::Simulator(config).run(trace, pf.get());
  }();

  sim::ShardReplayOptions options;
  options.shards = 4;
  options.warmup = 4000;  // partial: the scale-out mode (80% of a shard here)
  const sim::ShardedStats sharded = sim::run_sharded(config, trace, bo_factory, options);

  // Exact by construction: the global instruction span.
  EXPECT_EQ(sharded.merged.instructions, unsharded.instructions);
  // Documented bound (DESIGN.md §13): cache-state-dependent counters carry
  // warmup error, asserted here at the 25% relative level the contract
  // promises when warmup approaches the shard size. pf_issued is the
  // slowest to converge (each shard's prefetcher re-learns from scratch and
  // over-issues while training), which is why the contract pins the bound
  // at this warmup, not a smaller one.
  auto within = [](std::uint64_t got, std::uint64_t want, double tol) {
    const double g = static_cast<double>(got);
    const double w = static_cast<double>(want);
    return w == 0.0 ? g == 0.0 : (g > w ? g - w : w - g) / w <= tol;
  };
  EXPECT_TRUE(within(sharded.merged.cycles, unsharded.cycles, 0.25));
  EXPECT_TRUE(within(sharded.merged.llc_accesses, unsharded.llc_accesses, 0.25));
  EXPECT_TRUE(within(sharded.merged.pf_issued, unsharded.pf_issued, 0.25));
  // Derived ratios converge with warmup; assert the same documented bound.
  EXPECT_NEAR(sharded.merged.accuracy(), unsharded.accuracy(), 0.25);
  EXPECT_NEAR(sharded.merged.coverage(), unsharded.coverage(), 0.25);
}

// --------------------------------------------------------------- accounting

TEST_F(SweepChaosTest, AccountingInvariantHoldsUnderEveryFault) {
  // One sweep with failures, timeouts, and resume-skips mixed together:
  // completed + failed + skipped must still equal the grid size.
  ExperimentSpec spec = tiny_grid();
  spec.sweep.store_dir = scratch_dir("accounting");
  spec.sweep.cell_timeout_ms = 60;
  spec.sweep.cell_retries = 1;
  common::fault_injector().install(
      "fail-cell:match=sequential|ISB;slow-cell:match=uniform|BO,ms=400");
  ExperimentResult first = ExperimentRunner(spec).run();
  EXPECT_EQ(first.count(CellStatus::kDone) + first.count(CellStatus::kFailed) +
                first.count(CellStatus::kSkipped),
            first.cells.size());
  EXPECT_EQ(first.count(CellStatus::kFailed), 2u);

  common::fault_injector().clear();
  ExperimentResult second = ExperimentRunner(spec).run();
  EXPECT_EQ(second.count(CellStatus::kDone) + second.count(CellStatus::kFailed) +
                second.count(CellStatus::kSkipped),
            second.cells.size());
  EXPECT_EQ(second.count(CellStatus::kSkipped), 2u);  // the clean cells
  EXPECT_EQ(second.count(CellStatus::kDone), 2u);     // the healed cells
  EXPECT_EQ(second.count(CellStatus::kFailed), 0u);
}

}  // namespace
}  // namespace dart::core
