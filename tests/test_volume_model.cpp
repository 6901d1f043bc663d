// The closed-form volume predictions must match the engines' measured
// volumes EXACTLY (byte-for-byte) — the strongest possible check that the
// implementation realizes the Section 7 communication scheme and nothing
// more.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "baseline/dist_local_engine.hpp"
#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "core/multihead_gat.hpp"
#include "dist/dist_1d_engine.hpp"
#include "dist/dist_engine.hpp"
#include "dist/dist_multihead.hpp"
#include "dist/dist_summa_engine.hpp"
#include "dist/volume_model.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn::dist {
namespace {

GnnConfig config_for(ModelKind kind, index_t k, int layers) {
  GnnConfig cfg;
  cfg.kind = kind;
  cfg.in_features = k;
  cfg.layer_widths.assign(static_cast<std::size_t>(layers), k);
  cfg.seed = 1;
  return cfg;
}

struct VolumeCase {
  ModelKind kind;
  int ranks;
  index_t n;  // divisible by sqrt(ranks) for exactness
  index_t k;
  int layers;
};

class ExactVolumeSweep : public ::testing::TestWithParam<VolumeCase> {};

TEST_P(ExactVolumeSweep, GlobalEngineMatchesClosedFormExactly) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, 6 * p.n, 7);
  const CsrMatrix<double> adj =
      p.kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  const auto x = testing::random_dense<double>(p.n, p.k, 9);

  const auto stats = comm::SpmdRuntime::run(p.ranks, [&](comm::Communicator& world) {
    GnnModel<double> model(config_for(p.kind, p.k, p.layers));
    DistGnnEngine<double> engine(world, adj, model);
    comm::reset_all_stats(world);
    engine.forward(x, nullptr);
  });
  const double predicted_bytes =
      p.layers * predicted_global_forward_words(p.kind, p.n, p.k, p.ranks) *
      sizeof(double);
  // Diagonal grid ranks are their own transpose partner, so their block
  // exchanges are free; the prediction is exact for the max (off-diagonal)
  // rank when n divides evenly.
  EXPECT_EQ(static_cast<double>(comm::max_bytes_sent(stats)), predicted_bytes)
      << to_string(p.kind) << " p=" << p.ranks;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExactVolumeSweep,
    ::testing::Values(VolumeCase{ModelKind::kGCN, 4, 32, 4, 2},
                      VolumeCase{ModelKind::kVA, 4, 32, 4, 2},
                      VolumeCase{ModelKind::kVA, 9, 36, 8, 1},
                      VolumeCase{ModelKind::kAGNN, 4, 32, 4, 2},
                      VolumeCase{ModelKind::kAGNN, 16, 32, 4, 3},
                      VolumeCase{ModelKind::kGAT, 4, 32, 4, 2},
                      VolumeCase{ModelKind::kGAT, 9, 36, 8, 1},
                      VolumeCase{ModelKind::kGIN, 4, 32, 4, 2},
                      VolumeCase{ModelKind::kGIN, 9, 36, 3, 2},
                      VolumeCase{ModelKind::kGCN, 16, 64, 8, 3}),
    [](const auto& info) {
      return std::string(to_string(info.param.kind)) + "_p" +
             std::to_string(info.param.ranks) + "_n" + std::to_string(info.param.n) +
             "_k" + std::to_string(info.param.k) + "_L" +
             std::to_string(info.param.layers);
    });

TEST(VolumeModel, SingleRankIsFree) {
  EXPECT_EQ(predicted_global_forward_words(ModelKind::kGAT, 100, 16, 1), 0.0);
  EXPECT_EQ(predicted_1d_forward_words(100, 16, 1, ModelKind::kGAT), 0.0);
  EXPECT_EQ(predicted_summa_forward_words(ModelKind::kGAT, 100, 16,
                                          GridShape{DistPolicy::k2D, 1, 1, 1}),
            0.0);
}

// The per-rank protocol replay must match the SUMMA engines byte-for-byte
// on every family shape — including the rectangular, prime, and
// depth-replicated grids, with a vertex count (23) nothing divides.
TEST(VolumeModel, SummaFamilyMatchesMeasuredExactly) {
  const index_t n = 23, k = 4;
  const int layers = 2;
  const auto g = testing::small_graph<double>(n, 5 * n, 123);
  const auto x = testing::random_dense<double>(n, k, 13);
  const GridShape shapes[] = {
      {DistPolicy::k2D, 2, 2, 1}, {DistPolicy::k2D, 3, 2, 1},
      {DistPolicy::k2D, 2, 3, 1}, {DistPolicy::k2D, 3, 1, 1},
      {DistPolicy::k2D, 1, 3, 1}, {DistPolicy::k3D, 3, 2, 2},
      {DistPolicy::k3D, 2, 2, 2}, {DistPolicy::k3D, 2, 1, 4},
  };
  for (const ModelKind kind : {ModelKind::kGCN, ModelKind::kGIN, ModelKind::kVA,
                               ModelKind::kAGNN, ModelKind::kGAT}) {
    const CsrMatrix<double> adj =
        kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
    for (const GridShape& shape : shapes) {
      const auto stats =
          comm::SpmdRuntime::run(shape.size(), [&](comm::Communicator& world) {
            GnnModel<double> model(config_for(kind, k, layers));
            DistSummaEngine<double> engine(world, adj, model, shape);
            comm::reset_all_stats(world);
            engine.forward(x, nullptr);
          });
      const double predicted_bytes =
          layers * predicted_summa_forward_words(kind, n, k, shape) *
          sizeof(double);
      EXPECT_EQ(static_cast<double>(comm::max_bytes_sent(stats)),
                predicted_bytes)
          << to_string(kind) << " " << shape.describe();
    }
  }
}

// Same byte-exactness for the 1D row-block engine, whose only volume is the
// parameter broadcast plus the per-layer allgather.
TEST(VolumeModel, OneDMatchesMeasuredExactly) {
  const index_t n = 23, k = 4;
  const int layers = 2;
  const auto g = testing::small_graph<double>(n, 5 * n, 123);
  const auto x = testing::random_dense<double>(n, k, 13);
  for (const ModelKind kind : {ModelKind::kGCN, ModelKind::kGIN, ModelKind::kVA,
                               ModelKind::kAGNN, ModelKind::kGAT}) {
    const CsrMatrix<double> adj =
        kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
    for (const int p : {2, 3, 5}) {
      const auto stats =
          comm::SpmdRuntime::run(p, [&](comm::Communicator& world) {
            GnnModel<double> model(config_for(kind, k, layers));
            Dist1dGlobalEngine<double> engine(world, adj, model);
            comm::reset_all_stats(world);
            engine.forward(x, nullptr);
          });
      const double predicted_bytes =
          layers * predicted_1d_forward_words(n, k, p, kind) * sizeof(double);
      EXPECT_EQ(static_cast<double>(comm::max_bytes_sent(stats)),
                predicted_bytes)
          << to_string(kind) << " p=" << p;
    }
  }
}

// The policy dispatcher must agree with the per-family replays it routes to.
TEST(VolumeModel, PolicyDispatchMatchesFamilyReplays) {
  const index_t n = 96, k = 8;
  EXPECT_EQ(predicted_policy_forward_words(DistPolicy::k1D, ModelKind::kVA, n,
                                           k, 6),
            predicted_1d_forward_words(n, k, 6, ModelKind::kVA));
  EXPECT_EQ(predicted_policy_forward_words(DistPolicy::k1_5D, ModelKind::kGAT,
                                           n, k, 9),
            predicted_global_forward_words(ModelKind::kGAT, n, k, 9));
  EXPECT_EQ(predicted_policy_forward_words(DistPolicy::k2D, ModelKind::kGIN, n,
                                           k, 6),
            predicted_summa_forward_words(ModelKind::kGIN, n, k,
                                          grid_for(DistPolicy::k2D, 6)));
  EXPECT_EQ(
      predicted_policy_forward_words(DistPolicy::k3D, ModelKind::kAGNN, n, k,
                                     8, /*depth_hint=*/2),
      predicted_summa_forward_words(ModelKind::kAGNN, n, k,
                                    grid_for(DistPolicy::k3D, 8, 2)));
}

// Every family member's exact replay must stay within a fixed constant of
// its closed-form asymptotic bound across a sweep — the policy-generalized
// Section 7.1 statement.
TEST(VolumeModel, PolicyBoundsDominateAsConstantFactor) {
  for (const index_t n : {64, 256, 1024}) {
    for (const index_t k : {4, 16, 64}) {
      for (const int p : {4, 6, 16, 24, 64}) {
        for (const ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN,
                                     ModelKind::kGAT, ModelKind::kGCN,
                                     ModelKind::kGIN}) {
          for (const DistPolicy policy :
               {DistPolicy::k1D, DistPolicy::k1_5D, DistPolicy::k2D,
                DistPolicy::k3D}) {
            if (!policy_accepts(policy, p)) continue;
            const double exact =
                predicted_policy_forward_words(policy, kind, n, k, p);
            const double bound = policy_bound_words(policy, n, k, p);
            EXPECT_LT(exact, 7.0 * bound)
                << to_string(policy) << " " << to_string(kind) << " n=" << n
                << " k=" << k << " p=" << p;
          }
        }
      }
    }
  }
}

// The asymptotic ladder: at a fixed rank count, each richer member's bound
// is no worse than the one below it (1D >= 1.5D on squares; 2D >= 3D).
TEST(VolumeModel, FamilyBoundsFormALadder) {
  const index_t n = 4096, k = 32;
  for (const int p : {16, 64}) {
    const double b1 = policy_bound_words(DistPolicy::k1D, n, k, p);
    const double b15 = policy_bound_words(DistPolicy::k1_5D, n, k, p);
    const double b2 = policy_bound_words(DistPolicy::k2D, n, k, p);
    const double b3 = policy_bound_words(DistPolicy::k3D, n, k, p, 2);
    EXPECT_GE(b1, b15) << p;
    EXPECT_GE(b1, b2) << p;
    EXPECT_GE(b2, b3) << p;
  }
}

TEST(VolumeModel, Section7BoundDominatesAsConstantFactor) {
  // The engine's exact volume must stay within a fixed constant of the
  // Section 7 bound across a sweep of (n, k, p).
  for (const index_t n : {64, 256, 1024}) {
    for (const index_t k : {4, 16, 64}) {
      for (const int p : {4, 16, 64}) {
        for (const ModelKind kind : {ModelKind::kVA, ModelKind::kAGNN,
                                     ModelKind::kGAT, ModelKind::kGCN,
                                     ModelKind::kGIN}) {
          const double exact = predicted_global_forward_words(kind, n, k, p);
          const double bound = section7_bound_words(n, k, p);
          EXPECT_LT(exact, 7.0 * bound)
              << to_string(kind) << " n=" << n << " k=" << k << " p=" << p;
        }
      }
    }
  }
}

TEST(VolumeModel, LocalEnginePredictionMatchesMeasuredExactly) {
  const index_t n = 36, k = 8;
  const auto g = testing::small_graph<double>(n, 250, 13);
  const auto x = testing::random_dense<double>(n, k, 15);
  for (const int ranks : {2, 3, 4}) {
    for (const ModelKind kind : {ModelKind::kGCN, ModelKind::kVA, ModelKind::kGAT}) {
      const CsrMatrix<double> adj =
          kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
      const auto stats =
          comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
            GnnModel<double> model(config_for(kind, k, 1));
            baseline::DistLocalEngine<double> engine(world, adj, model);
            comm::reset_all_stats(world);
            engine.forward(x, nullptr);
          });
      const double predicted = predicted_local_forward_bytes(
          adj, ranks, k, /*has_attention_vector=*/kind == ModelKind::kGAT);
      EXPECT_EQ(static_cast<double>(comm::max_bytes_sent(stats)), predicted)
          << to_string(kind) << " p=" << ranks;
    }
  }
}

// ---- training-step traffic --------------------------------------------------

// Max per-rank bytes, total messages and max supersteps of one train_step.
struct StepTraffic {
  std::uint64_t max_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t supersteps = 0;
  bool operator==(const StepTraffic&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StepTraffic& t) {
  return os << "{" << t.max_bytes << ", " << t.messages << ", " << t.supersteps
            << "}";
}

struct TrafficSetup {
  static constexpr index_t kN = 24;  // 1.5D p=4 blocks: b = 12 rows
  static constexpr index_t kIn = 5;
  graph::Graph<double> g = testing::small_graph<double>(kN, 6 * kN, 7);
  DenseMatrix<double> x = testing::random_dense<double>(kN, kIn, 9);
  std::vector<index_t> labels = [] {
    std::vector<index_t> l(static_cast<std::size_t>(kN));
    for (index_t i = 0; i < kN; ++i) l[static_cast<std::size_t>(i)] = i % 3;
    return l;
  }();

  // Layer input widths 5 and 6: the per-layer k_in of the 1.5D term below.
  static GnnConfig config(ModelKind kind) {
    GnnConfig cfg;
    cfg.kind = kind;
    cfg.in_features = kIn;
    cfg.layer_widths = {6, 3};
    cfg.seed = 1;
    return cfg;
  }

  CsrMatrix<double> adj(ModelKind kind) const {
    return kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  }

  // Builds the engine on every rank, zeroes the counters, runs one step.
  template <typename MakeEngine>
  StepTraffic step(int ranks, MakeEngine make) const {
    const auto stats =
        comm::SpmdRuntime::run(ranks, [&](comm::Communicator& world) {
          make(world, [&](auto& engine) {
            SgdOptimizer<double> opt(0.1);
            comm::reset_all_stats(world);
            engine.train_step(x, labels, opt);
          });
        });
    StepTraffic t;
    t.max_bytes = comm::max_bytes_sent(stats);
    for (const auto& s : stats) t.messages += s.messages;
    t.supersteps = comm::max_supersteps(stats);
    return t;
  }
};

constexpr ModelKind kAllKinds[] = {ModelKind::kGCN, ModelKind::kGIN,
                                   ModelKind::kVA, ModelKind::kAGNN,
                                   ModelKind::kGAT};

// One training step moves exactly the traffic the engines moved before
// their per-model math was shared (dist/block_layer.hpp); these values were
// recorded from those engines. The one difference is the 1.5D VA/AGNN
// backward, which now derives M = G W^T from the already-fetched G_R rows
// instead of fetching M too. Per layer that drops one partner exchange: each
// of the two off-diagonal ranks sends one b x k_in block (and one message)
// less, and every rank runs one window superstep less.
TEST(TrainStepTraffic, OneFiveDMatchesRecorded) {
  const TrafficSetup s;
  const std::uint64_t b = TrafficSetup::kN / 2;
  const std::uint64_t m_exchange_bytes = b * (5 + 6) * sizeof(double);
  const StepTraffic dropped_m{m_exchange_bytes, 2 * 2, 2};
  const auto minus = [](StepTraffic t, const StepTraffic& d) {
    return StepTraffic{t.max_bytes - d.max_bytes, t.messages - d.messages,
                       t.supersteps - d.supersteps};
  };
  const std::map<ModelKind, StepTraffic> expected = {
      {ModelKind::kGCN, {7120, 72, 28}},
      {ModelKind::kGIN, {10312, 104, 44}},
      {ModelKind::kVA, minus({12400, 100, 38}, dropped_m)},
      {ModelKind::kAGNN, minus({15472, 152, 52}, dropped_m)},
      {ModelKind::kGAT, {9088, 184, 64}},
  };
  for (const ModelKind kind : kAllKinds) {
    const CsrMatrix<double> adj = s.adj(kind);
    const StepTraffic got = s.step(4, [&](comm::Communicator& world, auto run) {
      GnnModel<double> model(TrafficSetup::config(kind));
      DistGnnEngine<double> engine(world, adj, model);
      run(engine);
    });
    EXPECT_EQ(got, expected.at(kind)) << "1.5d p=4 " << to_string(kind);
  }
}

// The 1D engine is BlockLayer over the row-block layout (dist_1d_engine.hpp).
// These values were recorded at p = 3 (8 rows per rank) from the engine's
// earlier hand-derived layer. GCN, GIN and VA still move exactly that. Two
// kinds differ, both by whole collectives:
//   * AGNN reduces its three column terms (cs, the dTheta rows and the
//     aggregation gradient) separately, where the hand-derived layer summed
//     them into one n x k_in allreduce: per layer, one more allreduce of n
//     words and one more of n x k_in.
//   * GAT reduces ds2 on its own (one more allreduce of n words per layer),
//     and its column term is dH' (n x k_out) instead of Gamma (n x k_in);
//     likewise the forward allgathers H' (k_out) instead of H (k_in).
TEST(TrainStepTraffic, OneDMatchesRecorded) {
  const TrafficSetup s;
  constexpr std::uint64_t p = 3, ceil_log2_p = 2;
  const std::uint64_t n = TrafficSetup::kN, own = n / p, w = sizeof(double);
  // One allreduce: 2x its bytes and 2 messages per rank, 2 ceil(log2 p)
  // supersteps.
  const auto allreduces = [&](std::uint64_t count, std::uint64_t words) {
    return StepTraffic{2 * words * w, count * 2 * p, count * 2 * ceil_log2_p};
  };
  const auto plus = [](StepTraffic t, const StepTraffic& d) {
    return StepTraffic{t.max_bytes + d.max_bytes, t.messages + d.messages,
                       t.supersteps + d.supersteps};
  };
  // Layer widths 5 -> 6 -> 3: summed over the layers, k_out - k_in is
  // 1 - 3 = -2 columns, on (n - own) allgathered and 2n allreduced rows.
  const std::uint64_t gat_width_bytes_saved = (3 - 1) * ((n - own) + 2 * n) * w;
  StepTraffic gat = plus({7232, 66, 40}, allreduces(2, 2 * n));
  gat.max_bytes -= gat_width_bytes_saved;
  const StepTraffic agnn_terms = allreduces(4, n * (1 + 5) + n * (1 + 6));
  const std::map<ModelKind, StepTraffic> expected = {
      {ModelKind::kGCN, {6800, 48, 28}},
      {ModelKind::kGIN, {7880, 66, 40}},
      {ModelKind::kVA, {6800, 48, 28}},
      {ModelKind::kAGNN, plus({6800, 48, 28}, agnn_terms)},
      {ModelKind::kGAT, gat},
  };
  for (const ModelKind kind : kAllKinds) {
    const CsrMatrix<double> adj = s.adj(kind);
    const StepTraffic got = s.step(
        static_cast<int>(p), [&](comm::Communicator& world, auto run) {
          GnnModel<double> model(TrafficSetup::config(kind));
          Dist1dGlobalEngine<double> engine(world, adj, model);
          run(engine);
        });
    EXPECT_EQ(got, expected.at(kind)) << "1d p=3 " << to_string(kind);
  }
}

TEST(TrainStepTraffic, SummaMatchesRecorded) {
  const TrafficSetup s;
  const GridShape grid_2d{DistPolicy::k2D, 2, 2, 1};
  const GridShape grid_3d{DistPolicy::k3D, 2, 2, 2};
  const std::map<ModelKind, std::pair<StepTraffic, StepTraffic>> expected = {
      {ModelKind::kGCN, {{7312, 96, 32}, {6784, 192, 48}}},
      {ModelKind::kGIN, {{9448, 136, 48}, {8920, 272, 70}}},
      {ModelKind::kVA, {{10480, 128, 40}, {9952, 256, 60}}},
      {ModelKind::kAGNN, {{13456, 180, 54}, {12928, 360, 86}}},
      {ModelKind::kGAT, {{8896, 216, 68}, {8464, 432, 110}}},
  };
  for (const ModelKind kind : kAllKinds) {
    const CsrMatrix<double> adj = s.adj(kind);
    for (const GridShape* shape : {&grid_2d, &grid_3d}) {
      const StepTraffic got =
          s.step(shape->size(), [&](comm::Communicator& world, auto run) {
            GnnModel<double> model(TrafficSetup::config(kind));
            DistSummaEngine<double> engine(world, adj, model, *shape);
            run(engine);
          });
      const auto& want = expected.at(kind);
      EXPECT_EQ(got, shape == &grid_2d ? want.first : want.second)
          << shape->describe() << " " << to_string(kind);
    }
  }
}

TEST(TrainStepTraffic, MultiHeadMatchesRecorded) {
  const TrafficSetup s;
  typename MultiHeadGat<double>::Config cfg;
  cfg.in_features = TrafficSetup::kIn;
  cfg.head_features = 3;
  cfg.heads = 3;
  cfg.out_features = 3;
  cfg.out_heads = 2;
  cfg.hidden_layers = 1;
  cfg.seed = 1;
  const StepTraffic got = s.step(4, [&](comm::Communicator& world, auto run) {
    MultiHeadGat<double> model(cfg);
    DistMultiHeadGatEngine<double> engine(world, s.g.adj, model);
    run(engine);
  });
  EXPECT_EQ(got, (StepTraffic{16936, 436, 148}));
}

TEST(VolumeModel, GlobalScalesDownLocalDoesNot) {
  // As p grows at fixed n, the global per-rank prediction shrinks ~1/sqrt(p)
  // while the dense-graph local prediction stays ~n*k.
  const index_t n = 144, k = 16;
  const double g4 = predicted_global_forward_words(ModelKind::kVA, n, k, 4);
  const double g16 = predicted_global_forward_words(ModelKind::kVA, n, k, 16);
  const double g144 = predicted_global_forward_words(ModelKind::kVA, n, k, 144);
  EXPECT_GT(g4, 1.8 * g16);
  EXPECT_GT(g16, 2.0 * g144);
}

}  // namespace
}  // namespace agnn::dist
