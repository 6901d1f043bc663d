// The autotuner test layer for src/tensor/autotune.hpp + tuning_cache.hpp.
//
//   1. Graph-signature bucketing: deterministic, logarithmic, k-sensitive.
//   2. AGNN_TUNE parsing: strict unknown-value throw, at both the parse
//      function and a live kernel call.
//   3. Cache round-trip: tune -> persist -> simulated restart -> reload with
//      ZERO re-samples (counter-proven), bitwise-identical outputs.
//   4. Corrupt / truncated / version-mismatched cache files are ignored
//      without throwing; valid lines before a corrupt tail still load.
//   5. "Tuned never loses to auto by more than noise" on the bench graph
//      families.
//   6. The both-auto precedence regression: the resolved SCHEDULE owns the
//      AGNN_FORMAT=auto decision (a chunked schedule keeps CSR).
//   7. The choice gauge encoding round-trips through the TraceReport
//      decoder (the cross-layer contract).
//   8. Freeze semantics: a frozen tuner serves warm entries but never
//      samples; explicit env knobs always beat the tuner.
//   9. Serving warmup: the server tunes exactly once at construction and
//      requests never sample (counters prove it).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_report.hpp"
#include "tensor/coo_matrix.hpp"
#include "serve/server.hpp"
#include "tensor/autotune.hpp"
#include "tensor/fused.hpp"
#include "tensor/sparse_ops.hpp"
#include "tensor/spmm.hpp"
#include "tensor/tuning_cache.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

using testing::random_dense;

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

std::uint64_t counter_value(const char* name) {
  const obs::Counter* c = obs::MetricsRegistry::global().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

// Each test starts from an empty in-memory table and no env-loaded file, so
// sample/store counters measure only the test's own activity (the global
// counters themselves are cumulative — always compare deltas).
class Autotune : public ::testing::Test {
 protected:
  void SetUp() override { TuningCache::global().clear(); }
  void TearDown() override { TuningCache::global().clear(); }
};

// A mid-size skewed graph: big enough that every candidate class (chunked
// schedules, SELL, BCSR) is on the table, small enough to sample quickly.
CsrMatrix<double> hub_graph(index_t n, index_t hub_deg, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = n;
  for (index_t j = 1; j <= hub_deg && j < n; ++j) {
    coo.push_back(0, j, rng.next_uniform(0.1, 1.0));
  }
  for (index_t i = 0; i < n; ++i) {
    coo.push_back(i, i, rng.next_uniform(0.1, 1.0));
    coo.push_back(i, (i + 1) % n, rng.next_uniform(0.1, 1.0));
  }
  coo.sum_duplicates();
  return CsrMatrix<double>::from_coo(coo);
}

// Every row degree 64, one degree-300 hub: nnz ≈ 26k (over the auto
// threshold), skew ≈ 4.6 (under the edge-balanced threshold), max degree
// 300 — so the auto baseline is row-parallel under the 1024 default grain
// (300 < 4*1024) but hybrid-binned under grain 64 (300 >= 4*64). The grain
// regression tests need exactly this baseline flip.
CsrMatrix<double> grain_sensitive_graph() {
  Rng rng(151);
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = 400;
  for (index_t i = 0; i < 400; ++i) {
    const index_t deg = i == 0 ? 300 : 64;
    for (index_t j = 1; j <= deg; ++j) {
      coo.push_back(i, (i + j) % 400, rng.next_uniform(0.1, 1.0));
    }
  }
  coo.sum_duplicates();
  return CsrMatrix<double>::from_coo(coo);
}

// ---- 1. signature bucketing -------------------------------------------------

TEST_F(Autotune, SignatureBucketingIsDeterministicAndLogarithmic) {
  EXPECT_EQ(tune_bucket(0), 0);
  EXPECT_EQ(tune_bucket(1), 1);
  EXPECT_EQ(tune_bucket(2), 2);
  EXPECT_EQ(tune_bucket(3), 2);
  EXPECT_EQ(tune_bucket(4), 3);
  EXPECT_EQ(tune_bucket(1023), 10);
  EXPECT_EQ(tune_bucket(1024), 11);

  const auto a = hub_graph(400, 120, 17);
  const ScheduleStats st = compute_schedule_stats(a.row_ptr());
  const GraphSignature s1 = make_graph_signature(st, 16, kDefaultScheduleGrain);
  const GraphSignature s2 = make_graph_signature(st, 16, kDefaultScheduleGrain);
  EXPECT_EQ(s1, s2) << "same stats + k + grain must bucket identically";

  // Same size class -> same signature: two graphs whose stats share every
  // bucket are one tuning cell.
  const auto b = hub_graph(401, 121, 99);
  const GraphSignature s3 = make_graph_signature(
      compute_schedule_stats(b.row_ptr()), 16, kDefaultScheduleGrain);
  EXPECT_EQ(s1, s3);

  // The feature width is part of the key: k=16 and k=64 tune separately.
  EXPECT_NE(s1, make_graph_signature(st, 64, kDefaultScheduleGrain));
  // The schedule grain is part of the key — EXACTLY, not log-bucketed: the
  // auto-policy baseline (and a chunked decomposition's fold order) depends
  // on it, so choices sampled under different grains must not share a cell.
  EXPECT_NE(s1, make_graph_signature(st, 16, 64));
  EXPECT_NE(make_graph_signature(st, 16, 768),
            make_graph_signature(st, 16, 1023))
      << "same log2 bucket, different grains: still distinct cells";
  // The resolved baseline is recorded in the signature.
  EXPECT_EQ(static_cast<SchedulePolicy>(s1.baseline),
            resolve_schedule_policy(st, SchedulePolicy::kAuto,
                                    kDefaultScheduleGrain));
  // Quadrupling the hub moves max_deg (and skew) buckets.
  const auto c = hub_graph(400, 120 * 4, 17);
  EXPECT_NE(s1, make_graph_signature(compute_schedule_stats(c.row_ptr()), 16,
                                     kDefaultScheduleGrain));
}

// ---- 2. AGNN_TUNE parsing ---------------------------------------------------

TEST_F(Autotune, TuneModeParsesKnownSpellings) {
  TuneMode m = TuneMode::kOn;
  EXPECT_TRUE(parse_tune_mode("off", m));
  EXPECT_EQ(m, TuneMode::kOff);
  EXPECT_TRUE(parse_tune_mode("", m));
  EXPECT_EQ(m, TuneMode::kOff);
  EXPECT_TRUE(parse_tune_mode("on", m));
  EXPECT_EQ(m, TuneMode::kOn);
  EXPECT_TRUE(parse_tune_mode("force-resample", m));
  EXPECT_EQ(m, TuneMode::kForceResample);
  EXPECT_TRUE(parse_tune_mode("force_resample", m));
  EXPECT_EQ(m, TuneMode::kForceResample);
  EXPECT_FALSE(parse_tune_mode("ON", m));
  EXPECT_FALSE(parse_tune_mode("yes", m));

  {
    ScopedEnv e("AGNN_TUNE", nullptr);
    EXPECT_EQ(tune_mode_from_env(), TuneMode::kOff);
  }
  {
    ScopedEnv e("AGNN_TUNE", "on");
    EXPECT_EQ(tune_mode_from_env(), TuneMode::kOn);
  }
}

TEST_F(Autotune, UnknownTuneModeThrowsFromEnvAndFromKernels) {
  ScopedEnv e("AGNN_TUNE", "auto");  // a plausible typo — must not be silent
  EXPECT_THROW(tune_mode_from_env(), std::logic_error);
  // The throw surfaces from a real kernel call, not only from the helper.
  const auto a = hub_graph(64, 20, 3);
  const auto h = random_dense<double>(64, 4, 5);
  DenseMatrix<double> out;
  EXPECT_THROW(spmm(a, h, out), std::logic_error);
}

// ---- 3. cache round-trip ----------------------------------------------------

// One battery of tuned kernel calls; returns outputs for bitwise comparison.
struct TunedOutputs {
  DenseMatrix<double> spmm_out;
  CsrMatrix<double> sddmm_out;
  std::vector<double> row_sums;
  DenseMatrix<double> va;
};

TunedOutputs run_tuned_battery(const CsrMatrix<double>& a) {
  const auto h = random_dense<double>(a.rows(), 8, 101);
  const auto x = random_dense<double>(a.rows(), 6, 103);
  TunedOutputs o;
  spmm(a, h, o.spmm_out);
  sddmm(a, h, h, o.sddmm_out);
  sparse_row_sums(a, o.row_sums);
  fused_va_aggregate(a, h, x, o.va);
  return o;
}

TEST_F(Autotune, CacheRoundTripEliminatesResampling) {
  const std::string path = ::testing::TempDir() + "agnn_tune_roundtrip.cache";
  std::remove(path.c_str());
  ScopedEnv cache_env("AGNN_TUNE_CACHE", path.c_str());
  ScopedEnv tune_env("AGNN_TUNE", "on");
  ScopedEnv fmt_env("AGNN_FORMAT", nullptr);
  ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);

  const auto a = hub_graph(300, 90, 23);
  const std::uint64_t s0 = counter_value("tune.samples");
  const TunedOutputs first = run_tuned_battery(a);
  const std::uint64_t s1 = counter_value("tune.samples");
  EXPECT_GT(s1, s0) << "cold cache must sample";
  EXPECT_GT(TuningCache::global().size(), 0u);
  {
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << "store must persist to AGNN_TUNE_CACHE";
  }

  // Repeat calls on the warm in-memory table: no new samples.
  (void)run_tuned_battery(a);
  const std::uint64_t s2 = counter_value("tune.samples");
  EXPECT_EQ(s2, s1) << "warm in-memory cache must not re-sample";

  // Simulated restart: drop the table (and the loaded-path memo); the next
  // tuned call reloads the file and re-samples NOTHING.
  TuningCache::global().clear();
  ASSERT_EQ(TuningCache::global().size(), 0u);
  const std::uint64_t loads0 = counter_value("tune.cache.loaded_entries");
  const TunedOutputs reloaded = run_tuned_battery(a);
  const std::uint64_t s3 = counter_value("tune.samples");
  EXPECT_EQ(s3, s2) << "a warm cache file must eliminate re-sampling";
  EXPECT_GT(counter_value("tune.cache.loaded_entries"), loads0);

  // And the tuner may only pick among proven-equivalent variants: outputs
  // across the restart are bit-for-bit identical.
  ASSERT_EQ(first.spmm_out.rows(), reloaded.spmm_out.rows());
  for (index_t i = 0; i < first.spmm_out.rows(); ++i) {
    for (index_t j = 0; j < first.spmm_out.cols(); ++j) {
      ASSERT_EQ(first.spmm_out(i, j), reloaded.spmm_out(i, j));
    }
  }
  ASSERT_TRUE(first.sddmm_out.same_pattern(reloaded.sddmm_out));
  for (index_t e = 0; e < first.sddmm_out.nnz(); ++e) {
    ASSERT_EQ(first.sddmm_out.val_at(e), reloaded.sddmm_out.val_at(e));
  }
  std::remove(path.c_str());
}

TEST_F(Autotune, ForceResampleIgnoresWarmEntries) {
  ScopedEnv cache_env("AGNN_TUNE_CACHE", nullptr);
  ScopedEnv fmt_env("AGNN_FORMAT", nullptr);
  ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);
  const auto a = hub_graph(200, 60, 29);
  const auto h = random_dense<double>(a.rows(), 4, 31);
  DenseMatrix<double> out;
  {
    ScopedEnv tune_env("AGNN_TUNE", "on");
    spmm(a, h, out);
    const std::uint64_t s1 = counter_value("tune.samples");
    spmm(a, h, out);
    EXPECT_EQ(counter_value("tune.samples"), s1);
  }
  {
    ScopedEnv tune_env("AGNN_TUNE", "force-resample");
    const std::uint64_t s1 = counter_value("tune.samples");
    spmm(a, h, out);
    EXPECT_GT(counter_value("tune.samples"), s1)
        << "force-resample must re-measure despite the warm entry";
  }
}

// The grain-aliasing regression: a TunedChoice sampled under one
// AGNN_SCHEDULE_GRAIN (row-parallel baseline at the 1024 default) must NOT
// be served under another (hybrid-binned baseline at 64) — the two
// baselines are different reduction decompositions, so a stale hit would
// make tuned and untuned runs disagree bitwise. The signature carries
// {grain, baseline}: the second grain is a fresh cell, it re-samples, and
// the tuned output matches the untuned output under THAT grain to the bit.
TEST_F(Autotune, WarmCacheFromAnotherGrainIsNotServedAcrossBaselines) {
  ScopedEnv cache_env("AGNN_TUNE_CACHE", nullptr);
  ScopedEnv fmt_env("AGNN_FORMAT", nullptr);
  ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);
  const auto a = grain_sensitive_graph();
  const ScheduleStats st = compute_schedule_stats(a.row_ptr());
  ASSERT_EQ(resolve_schedule_policy(st, SchedulePolicy::kAuto,
                                    kDefaultScheduleGrain),
            SchedulePolicy::kRowParallel)
      << "precondition: row-parallel baseline at the default grain";
  ASSERT_EQ(resolve_schedule_policy(st, SchedulePolicy::kAuto, 64),
            SchedulePolicy::kHybridBinned)
      << "precondition: chunked baseline at grain 64";

  const auto h = random_dense<double>(a.rows(), 8, 149);
  DenseMatrix<double> out;
  {
    // Warm the default-grain cell.
    ScopedEnv grain_env("AGNN_SCHEDULE_GRAIN", nullptr);
    ScopedEnv tune_env("AGNN_TUNE", "on");
    spmm(a, h, out);
    EXPECT_GT(TuningCache::global().size(), 0u);
  }
  ScopedEnv grain_env("AGNN_SCHEDULE_GRAIN", "64");
  DenseMatrix<double> want;
  {
    ScopedEnv tune_env("AGNN_TUNE", nullptr);
    spmm(a, h, want);  // the untuned hybrid-binned answer
  }
  ScopedEnv tune_env("AGNN_TUNE", "on");
  const std::uint64_t s0 = counter_value("tune.samples");
  DenseMatrix<double> got;
  spmm(a, h, got);
  EXPECT_GT(counter_value("tune.samples"), s0)
      << "the default-grain entry must MISS under grain 64, not be served";
  ASSERT_EQ(got.rows(), want.rows());
  for (index_t i = 0; i < want.rows(); ++i) {
    for (index_t j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(got(i, j), want(i, j))
          << "tuned bits diverged from untuned at grain 64";
    }
  }
}

// ---- 4. defensive cache loading --------------------------------------------

TEST_F(Autotune, CorruptAndStaleCacheFilesAreIgnoredGracefully) {
  const std::string dir = ::testing::TempDir();
  auto write_file = [](const std::string& p, const std::string& body) {
    std::ofstream f(p, std::ios::trunc);
    f << body;
  };

  // (a) garbage header
  const std::string garbage = dir + "agnn_tune_garbage.cache";
  write_file(garbage,
             "not a tuning cache\n"
             "spmm 5 9 7 3 5 1024 row_parallel row_parallel 1024 csr 10\n");
  EXPECT_FALSE(TuningCache::global().load_file(garbage));
  EXPECT_EQ(TuningCache::global().size(), 0u);

  // (b) version mismatch — future AND past: a v1 file (whose signatures
  // predate the grain/baseline fields) must be rejected, not misparsed.
  const std::string stale = dir + "agnn_tune_stale.cache";
  write_file(stale,
             "AGNNTUNE v999\n"
             "spmm 5 9 7 3 5 1024 row_parallel row_parallel 1024 csr 10\n");
  EXPECT_FALSE(TuningCache::global().load_file(stale));
  EXPECT_EQ(TuningCache::global().size(), 0u);
  const std::string v1 = dir + "agnn_tune_v1.cache";
  write_file(v1, "AGNNTUNE v1\nspmm 5 9 7 3 5 row_parallel 1024 csr 10\n");
  EXPECT_FALSE(TuningCache::global().load_file(v1));
  EXPECT_EQ(TuningCache::global().size(), 0u);

  // (c) missing file
  EXPECT_FALSE(TuningCache::global().load_file(dir + "agnn_tune_missing.cache"));

  // (d) truncated/corrupt lines: the valid prefix loads, the junk is skipped,
  // nothing throws.
  const std::string mixed = dir + "agnn_tune_mixed.cache";
  write_file(
      mixed,
      "AGNNTUNE v2\n"
      "spmm 5 9 7 3 5 1024 row_parallel row_parallel 1024 csr 10\n"
      "sddmm 5 9 7 3 5 1024 row_parallel edge_balanced 256 sell 20\n"
      "spmm 5 9 7 3 5 1024 row_parallel auto 1024 csr 10\n"  // auto not storable
      "spmm 5 9 7 3 5 1024 auto row_parallel 1024 csr 10\n"  // nor auto baseline
      "spmm 5 9 7 3 5 1024 row_parallel row_parallel -8 csr 10\n"  // bad grain
      "spmm 5 9 7 3 5 0 row_parallel row_parallel 1024 csr 10\n"  // bad sig grain
      "spmm 99 9 7 3 5 1024 row_parallel row_parallel 1024 csr 10\n"  // b > 64
      "sparse_row_sums 5 9 7 3\n");  // truncated tail
  const std::uint64_t corrupt0 = counter_value("tune.cache.corrupt_lines");
  EXPECT_TRUE(TuningCache::global().load_file(mixed));
  EXPECT_EQ(TuningCache::global().size(), 2u);
  EXPECT_EQ(counter_value("tune.cache.corrupt_lines"), corrupt0 + 6);

  GraphSignature sig;
  sig.rows_b = 5;
  sig.nnz_b = 9;
  sig.max_deg_b = 7;
  sig.skew_b = 3;
  sig.k_b = 5;
  sig.grain = 1024;
  sig.baseline = static_cast<std::uint8_t>(SchedulePolicy::kRowParallel);
  const auto hit = TuningCache::global().lookup("sddmm", sig);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->policy, SchedulePolicy::kEdgeBalanced);
  EXPECT_EQ(hit->grain, 256);
  EXPECT_EQ(hit->format, SparseFormat::kSell);

  for (const auto& p : {garbage, stale, v1, mixed}) std::remove(p.c_str());
}

TEST_F(Autotune, SaveThenLoadRoundTripsEveryField) {
  const std::string path = ::testing::TempDir() + "agnn_tune_fields.cache";
  GraphSignature sig;
  sig.rows_b = 10;
  sig.nnz_b = 14;
  sig.max_deg_b = 8;
  sig.skew_b = 4;
  sig.k_b = 6;
  sig.grain = 192;  // deliberately not a power of two
  sig.baseline = static_cast<std::uint8_t>(SchedulePolicy::kHybridBinned);
  TunedChoice c;
  c.policy = SchedulePolicy::kHybridBinned;
  c.grain = 256;
  c.format = SparseFormat::kBcsr;
  c.sample_ns = 12345;
  {
    ScopedEnv cache_env("AGNN_TUNE_CACHE", nullptr);  // no double-persist
    TuningCache::global().store("spmm", sig, c);
  }
  ASSERT_TRUE(TuningCache::global().save_file(path));
  TuningCache::global().clear();
  ASSERT_TRUE(TuningCache::global().load_file(path));
  const auto hit = TuningCache::global().lookup("spmm", sig);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->policy, SchedulePolicy::kHybridBinned);
  EXPECT_EQ(hit->grain, 256);
  EXPECT_EQ(hit->format, SparseFormat::kBcsr);
  EXPECT_EQ(hit->sample_ns, 12345u);
  std::remove(path.c_str());
}

// ---- 5. tuned never loses to auto by more than noise ------------------------

TEST_F(Autotune, TunedChoiceNeverLosesToAutoByMoreThanNoise) {
  ScopedEnv cache_env("AGNN_TUNE_CACHE", nullptr);
  ScopedEnv fmt_env("AGNN_FORMAT", nullptr);
  ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);
  // The bench graph families in miniature: skewed hub and uniform ring.
  const std::vector<CsrMatrix<double>> graphs = {hub_graph(600, 300, 41),
                                                 hub_graph(600, 2, 43)};
  for (const auto& a : graphs) {
    const auto h = random_dense<double>(a.rows(), 16, 47);
    DenseMatrix<double> out;
    auto time_ns = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      spmm(a, h, out);
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    };
    {
      ScopedEnv tune_env("AGNN_TUNE", "on");
      spmm(a, h, out);  // pay the sampling cost outside the timed window
    }
    {
      ScopedEnv tune_env("AGNN_TUNE", nullptr);
      spmm(a, h, out);  // warm the auto-path schedule cache symmetrically
    }
    // Alternate the two dispatch paths rep by rep, so a burst of load from
    // concurrently running processes falls on both medians rather than on
    // whichever side happened to be timed during it.
    constexpr int kReps = 9;
    std::vector<std::uint64_t> tuned_t, auto_t;
    for (int r = 0; r < kReps; ++r) {
      {
        ScopedEnv tune_env("AGNN_TUNE", "on");
        tuned_t.push_back(time_ns());
      }
      ScopedEnv tune_env("AGNN_TUNE", nullptr);
      auto_t.push_back(time_ns());
    }
    auto median = [](std::vector<std::uint64_t>& t) {
      std::sort(t.begin(), t.end());
      return t[t.size() / 2];
    };
    const std::uint64_t tuned_ns = median(tuned_t);
    const std::uint64_t auto_ns = median(auto_t);
    // Noise bound, not a perf assertion: micro-kernels at this size jitter
    // heavily under CI/sanitizers, so "never loses" means "within a small
    // multiple plus a fixed floor", which still catches a pathological
    // choice (e.g. tuner picking a 10x-slower variant).
    EXPECT_LE(tuned_ns, auto_ns * 3 + 200'000u)
        << "tuned dispatch lost to the auto heuristics by more than noise";
  }
}

// ---- 6. the both-auto precedence rule ---------------------------------------

// Historical ambiguity: AGNN_FORMAT=auto picked SELL purely on nnz while
// KernelSchedule auto could simultaneously pick a chunked policy for the
// same matrix — two owners for one decision, and the format silently won.
// The rule now lives in resolve_dispatch: schedule resolves FIRST, and
// format=auto only picks SELL under a row-parallel resolved schedule.
TEST_F(Autotune, BothAutoPrecedenceScheduleResolvesFirst) {
  ScopedEnv tune_env("AGNN_TUNE", nullptr);
  ScopedEnv fmt_env("AGNN_FORMAT", "auto");
  ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);
  ScopedEnv grain_env("AGNN_SCHEDULE_GRAIN", nullptr);

  // A graph over the SELL nnz threshold whose hub forces the schedule
  // heuristic off row-parallel: the schedule decision must win.
  const auto skewed = hub_graph(6000, 5999, 53);
  ASSERT_GE(skewed.nnz(), kFormatAutoMinNnz);
  {
    const auto sched = schedule_for(skewed);
    ASSERT_FALSE(sched->row_parallel())
        << "precondition: auto schedule must go chunked on this graph";
  }
  const auto h = random_dense<double>(skewed.rows(), 8, 59);
  const std::uint64_t sell0 = counter_value("format.builds.sell");
  DenseMatrix<double> chunked_out;
  spmm(skewed, h, chunked_out);
  EXPECT_EQ(counter_value("format.builds.sell"), sell0)
      << "a chunked resolved schedule must keep CSR under AGNN_FORMAT=auto";

  // Uniform control at the same nnz scale: row-parallel resolved schedule,
  // SELL engages as before.
  const auto uniform = hub_graph(9000, 2, 61);
  ASSERT_GE(uniform.nnz(), kFormatAutoMinNnz);
  ASSERT_TRUE(schedule_for(uniform)->row_parallel());
  const auto hu = random_dense<double>(uniform.rows(), 8, 67);
  DenseMatrix<double> sell_out;
  spmm(uniform, hu, sell_out);
  EXPECT_GT(counter_value("format.builds.sell"), sell0)
      << "row-parallel + nnz over threshold must still pick SELL";

  // Either way the result is bitwise the dispatch-free answer.
  DenseMatrix<double> want;
  {
    ScopedEnv off("AGNN_FORMAT", nullptr);
    spmm(skewed, h, want);
  }
  for (index_t i = 0; i < want.rows(); ++i) {
    for (index_t j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(chunked_out(i, j), want(i, j));
    }
  }
}

// ---- 7. the choice-encoding contract with the obs layer ---------------------

TEST_F(Autotune, ChoiceEncodingRoundTripsThroughTraceReportDecoder) {
  for (const SchedulePolicy p :
       {SchedulePolicy::kRowParallel, SchedulePolicy::kEdgeBalanced,
        SchedulePolicy::kHybridBinned}) {
    for (const SparseFormat f :
         {SparseFormat::kCsr, SparseFormat::kSell, SparseFormat::kBcsr}) {
      for (const index_t g : {index_t(256), index_t(1024), index_t(4096)}) {
        TunedChoice c;
        c.policy = p;
        c.grain = g;
        c.format = f;
        const std::string got =
            obs::TraceReport::decode_tuned_choice(encode_tuned_choice(c));
        std::string want;
        want += p == SchedulePolicy::kRowParallel   ? "row"
                : p == SchedulePolicy::kEdgeBalanced ? "edge"
                                                     : "hybrid";
        want += f == SparseFormat::kCsr    ? "/csr"
                : f == SparseFormat::kSell ? "/sell"
                                           : "/bcsr";
        want += "/g" + std::to_string(g);
        EXPECT_EQ(got, want);
      }
    }
  }
  EXPECT_EQ(obs::TraceReport::decode_tuned_choice(0.0), "");
  EXPECT_EQ(obs::TraceReport::decode_tuned_choice(-3.0), "");
}

TEST_F(Autotune, TunedDecisionIsVisibleInTheRooflineTable) {
  ScopedEnv cache_env("AGNN_TUNE_CACHE", nullptr);
  ScopedEnv tune_env("AGNN_TUNE", "on");
  ScopedEnv fmt_env("AGNN_FORMAT", nullptr);
  ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);
  const auto a = hub_graph(200, 50, 71);
  const auto h = random_dense<double>(a.rows(), 4, 73);
  DenseMatrix<double> out;
  spmm(a, h, out);
  const obs::Gauge* g =
      obs::MetricsRegistry::global().find_gauge("tune.spmm.choice");
  ASSERT_NE(g, nullptr) << "the tuner must export its decision as a gauge";
  EXPECT_NE(obs::TraceReport::decode_tuned_choice(g->value()), "");
  EXPECT_NE(obs::TraceReport::decode_tuned_choice(g->value()), "?");
}

// ---- 8. freeze and explicit-knob precedence ---------------------------------

TEST_F(Autotune, FrozenTunerServesWarmEntriesButNeverSamples) {
  ScopedEnv cache_env("AGNN_TUNE_CACHE", nullptr);
  ScopedEnv tune_env("AGNN_TUNE", "on");
  ScopedEnv fmt_env("AGNN_FORMAT", nullptr);
  ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);
  const auto warm = hub_graph(200, 60, 79);
  const auto cold = hub_graph(3000, 900, 83);  // different signature cell
  const auto h1 = random_dense<double>(warm.rows(), 4, 89);
  const auto h2 = random_dense<double>(cold.rows(), 4, 97);
  DenseMatrix<double> out;
  spmm(warm, h1, out);  // tunes the warm cell
  const std::uint64_t s1 = counter_value("tune.samples");
  const std::uint64_t f1 = counter_value("tune.frozen_fallbacks");
  {
    TuneFreezeGuard freeze;
    ASSERT_TRUE(tune_frozen());
    spmm(warm, h1, out);  // warm entry still serves
    EXPECT_EQ(counter_value("tune.samples"), s1);
    EXPECT_EQ(counter_value("tune.frozen_fallbacks"), f1);
    spmm(cold, h2, out);  // unseen cell: heuristic fallback, no sampling
    EXPECT_EQ(counter_value("tune.samples"), s1)
        << "a frozen tuner must never sample";
    EXPECT_GT(counter_value("tune.frozen_fallbacks"), f1);
  }
  EXPECT_FALSE(tune_frozen());
}

// The frozen fallback is the FULL auto heuristic — both axes: an unseen
// large row-parallel signature gets SELL exactly where resolve_dispatch's
// rule-5 format heuristic would pick it, not a silently pinned CSR scalar
// path (bitwise-identical either way, but the documented fallback is the
// heuristics, and a frozen InferenceServer should not lose the SIMD path).
TEST_F(Autotune, FrozenFallbackAppliesTheFormatHeuristic) {
  ScopedEnv cache_env("AGNN_TUNE_CACHE", nullptr);
  ScopedEnv tune_env("AGNN_TUNE", "on");
  ScopedEnv fmt_env("AGNN_FORMAT", nullptr);
  ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);
  ScopedEnv grain_env("AGNN_SCHEDULE_GRAIN", nullptr);
  const auto big = hub_graph(9000, 2, 163);
  ASSERT_GE(big.nnz(), kFormatAutoMinNnz);
  ASSERT_TRUE(schedule_for(big)->row_parallel());
  const auto h = random_dense<double>(big.rows(), 4, 167);
  DenseMatrix<double> want;
  {
    ScopedEnv off("AGNN_TUNE", nullptr);
    spmm(big, h, want);
  }
  TuneFreezeGuard freeze;
  const std::uint64_t s0 = counter_value("tune.samples");
  const std::uint64_t sell0 = counter_value("format.builds.sell");
  const std::uint64_t f0 = counter_value("tune.frozen_fallbacks");
  DenseMatrix<double> got;
  spmm(big, h, got);
  EXPECT_EQ(counter_value("tune.samples"), s0) << "frozen must not sample";
  EXPECT_GT(counter_value("tune.frozen_fallbacks"), f0);
  EXPECT_GT(counter_value("format.builds.sell"), sell0)
      << "the frozen fallback must pick SELL where the auto heuristic would";
  for (index_t i = 0; i < want.rows(); ++i) {
    for (index_t j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(got(i, j), want(i, j));
    }
  }
}

TEST_F(Autotune, ExplicitKnobsBeatTheTuner) {
  ScopedEnv cache_env("AGNN_TUNE_CACHE", nullptr);
  ScopedEnv tune_env("AGNN_TUNE", "on");
  ScopedEnv fmt_env("AGNN_FORMAT", nullptr);
  const auto a = hub_graph(300, 90, 101);
  const auto h = random_dense<double>(a.rows(), 4, 103);
  DenseMatrix<double> out;
  {
    // A concrete AGNN_SCHEDULE pins the schedule axis: no sampling at all.
    ScopedEnv sched_env("AGNN_SCHEDULE", "edge");
    const std::uint64_t s0 = counter_value("tune.samples");
    spmm(a, h, out);
    EXPECT_EQ(counter_value("tune.samples"), s0);
  }
  {
    // A concrete AGNN_FORMAT does too.
    ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);
    ScopedEnv fmt_pin("AGNN_FORMAT", "sell");
    const std::uint64_t s0 = counter_value("tune.samples");
    spmm(a, h, out);
    EXPECT_EQ(counter_value("tune.samples"), s0);
  }
  {
    // An explicit KernelSchedule argument beats everything.
    ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);
    const auto sched = KernelSchedule::build(a.row_ptr(),
                                             SchedulePolicy::kEdgeBalanced, 64);
    const std::uint64_t s0 = counter_value("tune.samples");
    spmm(a, h, out, &sched);
    EXPECT_EQ(counter_value("tune.samples"), s0);
  }
}

// The tuner asking for different policies for different kernels on one
// matrix must not thrash the schedule cache: each requested policy has its
// own slot (csr_matrix.hpp), so alternating kernels rebuild nothing.
TEST_F(Autotune, PerPolicyScheduleSlotsDoNotThrash) {
  ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);
  const auto a = hub_graph(300, 90, 107);
  const auto row = schedule_for(a, SchedulePolicy::kRowParallel, 1024);
  const auto edge = schedule_for(a, SchedulePolicy::kEdgeBalanced, 1024);
  EXPECT_EQ(schedule_for(a, SchedulePolicy::kRowParallel, 1024).get(),
            row.get());
  EXPECT_EQ(schedule_for(a, SchedulePolicy::kEdgeBalanced, 1024).get(),
            edge.get());
  EXPECT_EQ(schedule_for(a, SchedulePolicy::kRowParallel, 1024).get(),
            row.get())
      << "alternating policies must not evict each other's slots";
}

// ---- 9. rectangular local blocks --------------------------------------------

// Distributed engines hand the kernels rectangular row/column blocks of the
// global adjacency, so the sampling proxies must size each gather side to
// its own extent (the blocked kernels assert exact operand dimensions — a
// square-only proxy operand aborts the 1.5D engine's first tuned SDDMM).
// Tuning a rectangular block must behave exactly like the square case:
// sample once, change no bits.
TEST_F(Autotune, RectangularBlocksTuneLikeSquareOnes) {
  ScopedEnv cache_env("AGNN_TUNE_CACHE", nullptr);
  ScopedEnv fmt_env("AGNN_FORMAT", nullptr);
  ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);
  const auto g = hub_graph(200, 80, 131);
  const CsrMatrix<double> tall = g.block(0, 200, 0, 60);  // rows > cols
  const CsrMatrix<double> wide = g.block(0, 60, 0, 200);  // cols > rows
  for (const CsrMatrix<double>* a : {&tall, &wide}) {
    ASSERT_NE(a->rows(), a->cols());
    ASSERT_GT(a->nnz(), 0);
    const auto x = random_dense<double>(a->rows(), 8, 137);
    const auto y = random_dense<double>(a->cols(), 8, 139);
    DenseMatrix<double> want_spmm;
    CsrMatrix<double> want_sddmm;
    {
      ScopedEnv off("AGNN_TUNE", nullptr);
      spmm(*a, y, want_spmm);
      sddmm(*a, x, y, want_sddmm);
    }
    ScopedEnv on("AGNN_TUNE", "on");
    const std::uint64_t s0 = counter_value("tune.samples");
    DenseMatrix<double> got_spmm;
    CsrMatrix<double> got_sddmm;
    spmm(*a, y, got_spmm);
    sddmm(*a, x, y, got_sddmm);
    EXPECT_GT(counter_value("tune.samples"), s0)
        << "rectangular blocks must sample, not crash or skip";
    for (index_t i = 0; i < want_spmm.rows(); ++i) {
      for (index_t j = 0; j < want_spmm.cols(); ++j) {
        ASSERT_EQ(want_spmm(i, j), got_spmm(i, j));
      }
    }
    ASSERT_TRUE(want_sddmm.same_pattern(got_sddmm));
    for (index_t e = 0; e < want_sddmm.nnz(); ++e) {
      ASSERT_EQ(want_sddmm.val_at(e), got_sddmm.val_at(e));
    }
  }
}

// ---- 10. serving warmup -----------------------------------------------------

TEST_F(Autotune, ServingWarmupTunesExactlyOnceAndRequestsNeverSample) {
  ScopedEnv cache_env("AGNN_TUNE_CACHE", nullptr);
  ScopedEnv tune_env("AGNN_TUNE", "on");
  ScopedEnv fmt_env("AGNN_FORMAT", nullptr);
  ScopedEnv sched_env("AGNN_SCHEDULE", nullptr);

  const auto g = testing::small_graph<float>(100, 1200, 113);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 8;
  cfg.layer_widths = {8, 5};
  const GnnModel<float> model(cfg);
  const auto x = random_dense<float>(100, 8, 127);

  serve::ServeConfig sc;
  sc.num_threads = 2;
  sc.max_batch = 8;
  sc.fanout = 5;
  sc.sample_seed = 99;

  const std::uint64_t w0 = counter_value("serve.warmup_tunes");
  const std::uint64_t s0 = counter_value("tune.samples");
  serve::InferenceServer<float> server(model, g.adj, x, sc);
  const std::uint64_t w1 = counter_value("serve.warmup_tunes");
  const std::uint64_t s1 = counter_value("tune.samples");
  EXPECT_EQ(w1, w0 + 1) << "warmup tuning must fire exactly once";
  EXPECT_GT(s1, s0) << "warmup must actually sample";
  EXPECT_TRUE(tune_frozen()) << "the server must freeze the tuner after warmup";

  std::vector<std::future<serve::InferenceReply<float>>> futures;
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    futures.push_back(
        server.submit(static_cast<index_t>(rng.next_bounded(100))));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, serve::ReplyStatus::kOk);
  }
  EXPECT_EQ(counter_value("tune.samples"), s1)
      << "no request may pay a sampling stall";
  EXPECT_EQ(counter_value("serve.warmup_tunes"), w1);

  server.stop(/*drain=*/true);
  EXPECT_FALSE(tune_frozen()) << "stop must release the freeze";
}

}  // namespace
}  // namespace agnn
