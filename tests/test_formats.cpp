// The blocked sparse format layer (DESIGN.md §13): SELL-C-σ and BCSR.
//
//   1. AGNN_FORMAT parsing and the env fallback.
//   2. SELL-C-σ structural invariants: σ-window sort, depth-major slot
//      addressing, dead pads, src() a bijection onto the CSR nnz range.
//   3. Lossless CSR -> SELL -> CSR round trips on the adversarial shapes
//      (empty matrix, empty rows, hub rows wider than C, row counts not a
//      multiple of C, duplicate entries).
//   4. BCSR round trips and the strict-ascending convertibility contract
//      (duplicates -> valid() == false -> dispatch falls back to CSR).
//   5. The format axis of the equivalence sweep: every dispatched kernel
//      bitwise-identical to the scalar CSR reference under format x
//      schedule-policy x graph family.
//   6. The pattern-only conversion caches on CsrMatrix: reuse, transfer on
//      copy, invalidation on in-place pattern rebuild, value freshness after
//      vals_mutable() writes.
//   7. kAuto's size threshold.
//   8. Upfront shape asserts naming the right kernel (spmmm regression).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/kronecker.hpp"
#include "tensor/bcsr_matrix.hpp"
#include "tensor/format.hpp"
#include "tensor/fused.hpp"
#include "tensor/sell_matrix.hpp"
#include "tensor/sparse_ops.hpp"
#include "tensor/spmm.hpp"
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

// ---- graph families ---------------------------------------------------------
// The shapes the conversions must survive: a hub row far wider than C, rows
// that are multiples of nothing, interleaved and trailing empty rows,
// power-law skew, and duplicate entries (representable in CSR, not in BCSR).

enum Family : int {
  kFamilyStar = 0,    // hub row of width 60 >> C = 8
  kFamilyChain,       // uniform degree <= 3, n % C != 0
  kFamilyEmptyRows,   // interleaved + trailing empty rows
  kFamilyKron,        // power-law degrees through the standard pipeline
  kFamilyDuplicates,  // duplicate (i, j) entries: SELL fine, BCSR invalid
  kFamilyCount,
};

const char* family_name(int f) {
  switch (f) {
    case kFamilyStar: return "star";
    case kFamilyChain: return "chain";
    case kFamilyEmptyRows: return "empty_rows";
    case kFamilyKron: return "kron";
    case kFamilyDuplicates: return "duplicates";
  }
  return "?";
}

CsrMatrix<double> family_graph(int family, std::uint64_t seed) {
  CooMatrix<double> coo;
  Rng rng(seed);
  switch (family) {
    case kFamilyStar: {
      const index_t n = 61;  // 61 % 8 != 0
      coo.n_rows = coo.n_cols = n;
      for (index_t j = 1; j < n; ++j) {
        coo.push_back(0, j, rng.next_uniform(0.1, 1.0));
        coo.push_back(j, 0, rng.next_uniform(0.1, 1.0));
      }
      for (index_t i = 0; i < n; ++i) {
        coo.push_back(i, i, rng.next_uniform(0.1, 1.0));
      }
      return CsrMatrix<double>::from_coo(coo);
    }
    case kFamilyChain: {
      const index_t n = 97;
      coo.n_rows = coo.n_cols = n;
      for (index_t i = 0; i + 1 < n; ++i) {
        coo.push_back(i, i + 1, rng.next_uniform(0.1, 1.0));
        coo.push_back(i + 1, i, rng.next_uniform(0.1, 1.0));
      }
      for (index_t i = 0; i < n; ++i) {
        coo.push_back(i, i, rng.next_uniform(0.1, 1.0));
      }
      return CsrMatrix<double>::from_coo(coo);
    }
    case kFamilyEmptyRows: {
      // Edges only among even rows of the first half; odd rows and the whole
      // second half (including the final rows) stay empty.
      const index_t n = 70;
      coo.n_rows = coo.n_cols = n;
      for (index_t e = 0; e < 120; ++e) {
        const auto i = 2 * static_cast<index_t>(rng.next_bounded(17));
        const auto j = 2 * static_cast<index_t>(rng.next_bounded(17));
        coo.push_back(i, j, rng.next_uniform(0.1, 1.0));
      }
      coo.sum_duplicates();
      return CsrMatrix<double>::from_coo(coo);
    }
    case kFamilyKron: {
      graph::BuildOptions opt;
      opt.add_self_loops = true;
      auto g = graph::build_graph<double>(
          graph::generate_kronecker({.scale = 7, .edges = 1500, .seed = seed}),
          opt);
      auto a = g.adj;
      auto v = a.vals_mutable();
      for (auto& x : v) x = rng.next_uniform(0.1, 1.0);
      return a;
    }
    case kFamilyDuplicates:
    default: {
      // from_coo keeps duplicates: push several copies of some coordinates.
      const index_t n = 23;
      coo.n_rows = coo.n_cols = n;
      for (index_t i = 0; i < n; ++i) {
        coo.push_back(i, i, rng.next_uniform(0.1, 1.0));
        coo.push_back(i, (i * 3 + 1) % n, rng.next_uniform(0.1, 1.0));
        coo.push_back(i, (i * 3 + 1) % n, rng.next_uniform(0.1, 1.0));
      }
      return CsrMatrix<double>::from_coo(coo);
    }
  }
}

bool csr_bits_equal(const CsrMatrix<double>& a, const CsrMatrix<double>& b) {
  if (!a.same_pattern(b)) return false;
  for (index_t e = 0; e < a.nnz(); ++e) {
    if (std::bit_cast<std::uint64_t>(a.val_at(e)) !=
        std::bit_cast<std::uint64_t>(b.val_at(e))) {
      return false;
    }
  }
  return true;
}

bool dense_bits_equal(const DenseMatrix<double>& a, const DenseMatrix<double>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.data()[i]) !=
        std::bit_cast<std::uint64_t>(b.data()[i])) {
      return false;
    }
  }
  return true;
}

// ---- 1. parsing -------------------------------------------------------------

TEST(SparseFormatParse, AcceptsAllSpellings) {
  SparseFormat f{};
  EXPECT_TRUE(parse_sparse_format("csr", f));
  EXPECT_EQ(f, SparseFormat::kCsr);
  EXPECT_TRUE(parse_sparse_format("", f));
  EXPECT_EQ(f, SparseFormat::kCsr);
  EXPECT_TRUE(parse_sparse_format("sell", f));
  EXPECT_EQ(f, SparseFormat::kSell);
  EXPECT_TRUE(parse_sparse_format("sell-c-sigma", f));
  EXPECT_EQ(f, SparseFormat::kSell);
  EXPECT_TRUE(parse_sparse_format("bcsr", f));
  EXPECT_EQ(f, SparseFormat::kBcsr);
  EXPECT_TRUE(parse_sparse_format("auto", f));
  EXPECT_EQ(f, SparseFormat::kAuto);
}

TEST(SparseFormatParse, RejectsUnknownSpellingsWithoutClobber) {
  SparseFormat f = SparseFormat::kSell;
  EXPECT_FALSE(parse_sparse_format("SELL", f));
  EXPECT_FALSE(parse_sparse_format("ellpack", f));
  EXPECT_FALSE(parse_sparse_format("csr ", f));
  EXPECT_EQ(f, SparseFormat::kSell) << "rejects must not clobber out";
}

TEST(SparseFormatParse, EnvSelectsFormat) {
  {
    ScopedEnv e("AGNN_FORMAT", nullptr);
    EXPECT_EQ(sparse_format_from_env(), SparseFormat::kCsr);
  }
  {
    ScopedEnv e("AGNN_FORMAT", "sell");
    EXPECT_EQ(sparse_format_from_env(), SparseFormat::kSell);
  }
  {
    ScopedEnv e("AGNN_FORMAT", "bcsr");
    EXPECT_EQ(sparse_format_from_env(), SparseFormat::kBcsr);
  }
  {
    // Garbage falls back to the scalar default rather than aborting.
    ScopedEnv e("AGNN_FORMAT", "hyb");
    EXPECT_EQ(sparse_format_from_env(), SparseFormat::kCsr);
  }
}

TEST(SparseFormatParse, RoundTripsToString) {
  for (const auto f : {SparseFormat::kCsr, SparseFormat::kSell,
                       SparseFormat::kBcsr, SparseFormat::kAuto}) {
    SparseFormat back{};
    ASSERT_TRUE(parse_sparse_format(to_string(f), back));
    EXPECT_EQ(back, f);
  }
}

// ---- 2. SELL structural invariants ------------------------------------------

TEST(SellInvariants, WindowSortSlotMapAndPads) {
  for (int fam = 0; fam < kFamilyCount; ++fam) {
    const auto a = family_graph(fam, 211 + static_cast<std::uint64_t>(fam));
    // A σ smaller than most test graphs so several windows exist.
    const index_t C = 4, sigma = 16;
    const auto s = SellCSigmaMatrix<double>::pattern_from_csr(a, C, sigma);
    ASSERT_EQ(s.rows(), a.rows()) << family_name(fam);
    ASSERT_EQ(s.nnz(), a.nnz()) << family_name(fam);
    const index_t lanes = s.chunks() * C;
    ASSERT_GE(lanes, a.rows());
    ASSERT_LT(lanes - a.rows(), C) << "only the last chunk may pad lanes";

    // Within every σ window lane lengths are non-increasing (pad lanes at
    // the very end read as length 0 and keep the property).
    for (index_t w = 0; w < lanes; w += sigma) {
      const index_t e = std::min<index_t>(w + sigma, lanes);
      for (index_t l = w + 1; l < e; ++l) {
        EXPECT_LE(s.lane_len()[static_cast<std::size_t>(l)],
                  s.lane_len()[static_cast<std::size_t>(l - 1)])
            << family_name(fam) << ": window sort violated at lane " << l;
      }
    }

    // Each live lane carries its row's true nnz; the lane→row map is a
    // bijection onto [0, n).
    std::vector<int> row_seen(static_cast<std::size_t>(a.rows()), 0);
    for (index_t l = 0; l < lanes; ++l) {
      const index_t row = s.row_of_lane()[static_cast<std::size_t>(l)];
      if (row < 0) {
        EXPECT_EQ(s.lane_len()[static_cast<std::size_t>(l)], 0);
        continue;
      }
      row_seen[static_cast<std::size_t>(row)]++;
      EXPECT_EQ(s.lane_len()[static_cast<std::size_t>(l)], a.row_nnz(row));
    }
    for (index_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(row_seen[static_cast<std::size_t>(i)], 1) << family_name(fam);
    }

    // src() maps live slots bijectively onto [0, nnz) in depth order =
    // CSR intra-row order; pad slots are dead (src -1, col 0).
    std::vector<int> nnz_seen(static_cast<std::size_t>(a.nnz()), 0);
    for (index_t c = 0; c < s.chunks(); ++c) {
      const index_t base = s.chunk_ptr()[static_cast<std::size_t>(c)];
      const index_t width =
          (s.chunk_ptr()[static_cast<std::size_t>(c) + 1] - base) / C;
      for (index_t lane = 0; lane < C; ++lane) {
        const std::size_t gl = static_cast<std::size_t>(c * C + lane);
        const index_t row = s.row_of_lane()[gl];
        const index_t len = s.lane_len()[gl];
        for (index_t j = 0; j < width; ++j) {
          const std::size_t slot = static_cast<std::size_t>(base + j * C + lane);
          if (j < len) {
            const index_t e = s.src()[slot];
            ASSERT_EQ(e, a.row_begin(row) + j)
                << family_name(fam) << ": depth order must be CSR order";
            nnz_seen[static_cast<std::size_t>(e)]++;
            EXPECT_EQ(s.col()[slot],
                      a.col_idx()[static_cast<std::size_t>(e)]);
          } else {
            EXPECT_EQ(s.src()[slot], -1) << "pad slots must be dead";
            EXPECT_EQ(s.col()[slot], 0);
          }
        }
      }
    }
    for (index_t e = 0; e < a.nnz(); ++e) {
      ASSERT_EQ(nnz_seen[static_cast<std::size_t>(e)], 1)
          << family_name(fam) << ": src must cover nnz " << e << " once";
    }
  }
}

// ---- 3. SELL round trips ----------------------------------------------------

TEST(SellRoundTrip, AdversarialShapesAreLossless) {
  for (int fam = 0; fam < kFamilyCount; ++fam) {
    const auto a = family_graph(fam, 223 + static_cast<std::uint64_t>(fam));
    for (const auto& [C, sigma] : {std::pair<index_t, index_t>{8, 128},
                                  {4, 16},
                                  {8, 8},
                                  {3, 9}}) {
      const auto s = SellCSigmaMatrix<double>::from_csr(a, C, sigma);
      EXPECT_TRUE(csr_bits_equal(s.to_csr(), a))
          << family_name(fam) << " C=" << C << " sigma=" << sigma;
    }
  }
}

TEST(SellRoundTrip, EmptyAndAllEmptyRowMatrices) {
  {
    CooMatrix<double> coo;
    coo.n_rows = coo.n_cols = 0;
    const auto a = CsrMatrix<double>::from_coo(coo);
    const auto s = SellCSigmaMatrix<double>::from_csr(a);
    EXPECT_EQ(s.chunks(), 0);
    EXPECT_EQ(s.slots(), 0);
    EXPECT_TRUE(csr_bits_equal(s.to_csr(), a));
  }
  {
    CooMatrix<double> coo;
    coo.n_rows = coo.n_cols = 13;  // all rows empty, 13 % 8 != 0
    const auto a = CsrMatrix<double>::from_coo(coo);
    const auto s = SellCSigmaMatrix<double>::from_csr(a);
    EXPECT_EQ(s.nnz(), 0);
    EXPECT_EQ(s.slots(), 0) << "empty rows must not allocate slots";
    EXPECT_TRUE(csr_bits_equal(s.to_csr(), a));
  }
}

// ---- 4. BCSR round trips and convertibility ---------------------------------

TEST(BcsrRoundTrip, SortedGraphsAreLossless) {
  for (int fam = 0; fam < kFamilyCount; ++fam) {
    if (fam == kFamilyDuplicates) continue;
    const auto a = family_graph(fam, 227 + static_cast<std::uint64_t>(fam));
    for (const auto& [br, bc] : {std::pair<index_t, index_t>{4, 8},
                                {2, 2},
                                {1, 4},
                                {3, 5}}) {
      const auto b = BcsrMatrix<double>::from_csr(a, br, bc);
      ASSERT_TRUE(b.valid()) << family_name(fam) << " " << br << "x" << bc;
      EXPECT_GE(b.slots(), b.nnz());
      EXPECT_TRUE(csr_bits_equal(b.to_csr(), a))
          << family_name(fam) << " " << br << "x" << bc;
    }
  }
}

TEST(BcsrRoundTrip, DuplicateEntriesAreRejectedNotMerged) {
  const auto a = family_graph(kFamilyDuplicates, 229);
  // Sanity: the graph really has a duplicate column within some row.
  bool has_dup = false;
  for (index_t i = 0; i < a.rows() && !has_dup; ++i) {
    for (index_t e = a.row_begin(i) + 1; e < a.row_end(i); ++e) {
      has_dup |= a.col_at(e) == a.col_at(e - 1);
    }
  }
  ASSERT_TRUE(has_dup);
  const auto b = BcsrMatrix<double>::pattern_from_csr(a);
  EXPECT_FALSE(b.valid())
      << "a CSR with duplicate columns is not BCSR-representable";
}

TEST(BcsrRoundTrip, EmptyMatrix) {
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = 9;
  const auto a = CsrMatrix<double>::from_coo(coo);
  const auto b = BcsrMatrix<double>::from_csr(a);
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(b.blocks(), 0);
  EXPECT_TRUE(csr_bits_equal(b.to_csr(), a));
}

// ---- 5. the format axis of the equivalence sweep ----------------------------
// The blocked kernels promise bitwise identity with the scalar CSR kernels
// under a row-parallel schedule, so every comparison here is exact — any
// reassociation is a bug. Two sweeps:
//
//   * FormatEquivalence: each AGNN_FORMAT against the seed scalar path,
//     all families. Covers the dispatched kernels AND the fallbacks (BCSR
//     on duplicate rows, kAuto below its threshold).
//   * SellScheduleIndependence: AGNN_FORMAT=sell under every schedule
//     policy. The blocked paths own each output row in exactly one chunk,
//     so the schedule knob must not change a single bit — unlike the scalar
//     chunked policies, which reassociate split hub rows.

struct FormatSweepInputs {
  CsrMatrix<double> a;
  DenseMatrix<double> h, x;
  std::vector<double> s1, s2;
};

FormatSweepInputs make_format_inputs(int family) {
  FormatSweepInputs in;
  in.a = family_graph(family, 233 + static_cast<std::uint64_t>(family));
  const index_t n = in.a.rows();
  in.h = random_dense<double>(n, 5, 239);
  in.x = random_dense<double>(n, 4, 241);
  in.s1.resize(static_cast<std::size_t>(n));
  in.s2.resize(static_cast<std::size_t>(n));
  Rng rng(251);
  for (auto& v : in.s1) v = rng.next_uniform(-1, 1);
  for (auto& v : in.s2) v = rng.next_uniform(-1, 1);
  return in;
}

struct FormatSweepOutputs {
  DenseMatrix<double> spmm_out, va, gat;
  CsrMatrix<double> sddmm_out, sddmm_unw;
};

FormatSweepOutputs run_dispatched_kernels(const FormatSweepInputs& in) {
  FormatSweepOutputs o;
  spmm(in.a, in.h, o.spmm_out);
  sddmm(in.a, in.h, in.h, o.sddmm_out);
  sddmm_unweighted(in.a, in.h, in.h, o.sddmm_unw);
  fused_va_aggregate(in.a, in.h, in.x, o.va);
  fused_gat_aggregate<double>(in.a, in.s1, in.s2, 0.2, in.x, o.gat);
  return o;
}

void expect_outputs_bitwise(const FormatSweepOutputs& got,
                            const FormatSweepOutputs& ref) {
  EXPECT_TRUE(dense_bits_equal(got.spmm_out, ref.spmm_out)) << "spmm";
  EXPECT_TRUE(csr_bits_equal(got.sddmm_out, ref.sddmm_out)) << "sddmm";
  EXPECT_TRUE(csr_bits_equal(got.sddmm_unw, ref.sddmm_unw))
      << "sddmm_unweighted";
  EXPECT_TRUE(dense_bits_equal(got.va, ref.va)) << "fused_va_aggregate";
  EXPECT_TRUE(dense_bits_equal(got.gat, ref.gat)) << "fused_gat_aggregate";
}

// One sweep case: an env-knob value crossed with a graph family.
struct KnobCase {
  const char* value;
  int family;
};

std::string knob_case_name(const KnobCase& c) {
  return std::string(c.value) + "_" + family_name(c.family);
}

// gtest lists each case's parameter beside its name, and the discovered
// ctest names carry that text: print the case by name rather than as the
// address of its string, so the names are the same on every discovery.
void PrintTo(const KnobCase& c, std::ostream* os) { *os << knob_case_name(c); }

std::vector<KnobCase> knob_cases(std::initializer_list<const char*> values) {
  std::vector<KnobCase> cases;
  for (const char* v : values) {
    for (int f = 0; f < kFamilyCount; ++f) cases.push_back({v, f});
  }
  return cases;
}

std::string knob_case_test_name(const ::testing::TestParamInfo<KnobCase>& pi) {
  return knob_case_name(pi.param);
}

class FormatEquivalence : public ::testing::TestWithParam<KnobCase> {};

TEST_P(FormatEquivalence, DispatchedKernelsMatchScalarCsrBitwise) {
  const char* format = GetParam().value;
  const auto in = make_format_inputs(GetParam().family);
  ScopedEnv pol("AGNN_SCHEDULE", "row");
  FormatSweepOutputs ref;
  {
    ScopedEnv fmt("AGNN_FORMAT", nullptr);
    ref = run_dispatched_kernels(in);
  }
  ScopedEnv fmt("AGNN_FORMAT", format);
  expect_outputs_bitwise(run_dispatched_kernels(in), ref);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FormatEquivalence,
                         ::testing::ValuesIn(knob_cases({"sell", "bcsr", "auto"})),
                         knob_case_test_name);

class SellScheduleIndependence : public ::testing::TestWithParam<KnobCase> {};

TEST_P(SellScheduleIndependence, ScheduleKnobNeverChangesBlockedResults) {
  const char* policy = GetParam().value;
  const auto in = make_format_inputs(GetParam().family);
  FormatSweepOutputs ref;
  {
    ScopedEnv fmt("AGNN_FORMAT", nullptr);
    ScopedEnv pol("AGNN_SCHEDULE", "row");
    ref = run_dispatched_kernels(in);
  }
  ScopedEnv fmt("AGNN_FORMAT", "sell");
  ScopedEnv pol("AGNN_SCHEDULE", policy);
  ScopedEnv grain("AGNN_SCHEDULE_GRAIN", "8");
  expect_outputs_bitwise(run_dispatched_kernels(in), ref);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SellScheduleIndependence,
                         ::testing::ValuesIn(knob_cases({"row", "edge", "hybrid"})),
                         knob_case_test_name);

// In-place value mutation between calls must be visible to the blocked
// paths: the cached conversion is pattern-only and values are read through
// src() from the live CSR array.
TEST(FormatEquivalence, ValueMutationStaysFresh) {
  auto a = family_graph(kFamilyKron, 257);
  const auto h = random_dense<double>(a.rows(), 6, 263);
  ScopedEnv fmt("AGNN_FORMAT", "sell");
  DenseMatrix<double> first;
  spmm(a, h, first);  // builds and caches the SELL conversion
  auto v = a.vals_mutable();
  Rng rng(269);
  for (auto& x : v) x = rng.next_uniform(-2.0, 2.0);
  DenseMatrix<double> got, want;
  spmm(a, h, got);  // cached pattern + new values
  {
    ScopedEnv off("AGNN_FORMAT", nullptr);
    spmm(a, h, want);
  }
  EXPECT_TRUE(dense_bits_equal(got, want))
      << "cached conversions must see vals_mutable() writes";
  EXPECT_FALSE(dense_bits_equal(got, first)) << "values really changed";
}

// ---- 6. the conversion caches on CsrMatrix ----------------------------------

TEST(FormatCache, ReusesAndTransfersOnCopy) {
  const auto a = family_graph(kFamilyStar, 271);
  const auto s1 = sell_for(a);
  const auto s2 = sell_for(a);
  EXPECT_EQ(s1.get(), s2.get()) << "second call must hit the cache";
  const auto b1 = bcsr_for(a);
  EXPECT_EQ(bcsr_for(a).get(), b1.get());
  const CsrMatrix<double> b = a;  // same pattern -> conversions stay valid
  EXPECT_EQ(b.cached_sell().get(), s1.get());
  EXPECT_EQ(b.cached_bcsr().get(), b1.get());
}

TEST(FormatCache, PatternRebuildInvalidates) {
  const auto a = family_graph(kFamilyStar, 277);
  CsrMatrix<double> t = a.transposed();
  const auto s = sell_for(t);
  ASSERT_NE(s.get(), nullptr);
  ASSERT_NE(t.cached_sell().get(), nullptr);
  a.transposed_into(t);  // rebuilds t's pattern in place
  EXPECT_EQ(t.cached_sell().get(), nullptr)
      << "an in-place pattern rebuild must drop the stale conversion";
  EXPECT_EQ(t.cached_bcsr().get(), nullptr);
}

// ---- 7. the kAuto threshold -------------------------------------------------

TEST(FormatAuto, SmallMatricesStayOnTheScalarPath) {
  ScopedEnv fmt("AGNN_FORMAT", "auto");
  const auto small = family_graph(kFamilyChain, 281);
  ASSERT_LT(small.nnz(), kFormatAutoMinNnz);
  EXPECT_EQ(detail::dispatch_format(small), SparseFormat::kCsr);
  const auto big = testing::random_sparse<double>(200, 0.5, 283);
  ASSERT_GE(big.nnz(), kFormatAutoMinNnz);
  EXPECT_EQ(detail::dispatch_format(big), SparseFormat::kSell);
}

TEST(FormatAuto, DegenerateMatricesStayOnTheScalarPath) {
  ScopedEnv fmt("AGNN_FORMAT", "sell");
  CooMatrix<double> coo;
  coo.n_rows = coo.n_cols = 5;
  const auto empty = CsrMatrix<double>::from_coo(coo);
  EXPECT_EQ(detail::dispatch_format(empty), SparseFormat::kCsr);
}

// ---- 8. upfront shape asserts (spmmm regression) ----------------------------
// A k-mismatch used to surface from the inner spmm/matmul with a message
// blaming the wrong kernel; the asserts now name spmmm itself.

bool message_names(const std::logic_error& e, const char* kernel) {
  return std::string(e.what()).find(kernel) != std::string::npos;
}

TEST(ShapeAsserts, SpmmmNamesItself) {
  const auto a = testing::random_sparse<double>(12, 0.3, 307);
  const auto h = random_dense<double>(12, 5, 311);
  const auto w_bad = random_dense<double>(6, 3, 313);  // h.cols() != w.rows()
  DenseMatrix<double> scratch, out;
  try {
    spmmm(a, h, w_bad, scratch, out);
    FAIL() << "expected a shape assert";
  } catch (const std::logic_error& e) {
    EXPECT_TRUE(message_names(e, "spmmm")) << e.what();
  }
  const auto h_bad = random_dense<double>(7, 5, 317);  // a.cols() != h.rows()
  const auto w = random_dense<double>(5, 3, 331);
  try {
    spmmm(a, h_bad, w, scratch, out);
    FAIL() << "expected a shape assert";
  } catch (const std::logic_error& e) {
    EXPECT_TRUE(message_names(e, "spmmm")) << e.what();
  }
  try {
    spmmm(a, h, w, out, out);  // aliased scratch
    FAIL() << "expected an alias assert";
  } catch (const std::logic_error& e) {
    EXPECT_TRUE(message_names(e, "spmmm")) << e.what();
  }
}

TEST(ShapeAsserts, AggregateAndMspmmValidateUpfront) {
  const auto a = testing::random_sparse<double>(12, 0.3, 337);
  const auto h_bad = random_dense<double>(7, 5, 347);
  DenseMatrix<double> out;
  try {
    aggregate(a, h_bad, Aggregation::kMin, out);
    FAIL() << "expected a shape assert";
  } catch (const std::logic_error& e) {
    EXPECT_TRUE(message_names(e, "aggregate")) << e.what();
  }
  const auto x = random_dense<double>(12, 4, 349);
  const auto y = random_dense<double>(12, 3, 353);
  DenseMatrix<double> scratch;
  try {
    mspmm(x, a, y, scratch, scratch);
    FAIL() << "expected an alias assert";
  } catch (const std::logic_error& e) {
    EXPECT_TRUE(message_names(e, "mspmm")) << e.what();
  }
}

}  // namespace
}  // namespace agnn
