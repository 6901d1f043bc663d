// The distributed global-formulation engine must reproduce the sequential
// engine exactly: inference outputs, per-step training losses, and the
// post-training weights — for every model, on 1, 4, 9, and 16 simulated
// ranks, including non-divisible vertex counts.
#include <gtest/gtest.h>

#include "comm/communicator.hpp"
#include "core/model.hpp"
#include "dist/dist_engine.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn::dist {
namespace {

struct DistCase {
  ModelKind kind;
  int ranks;  // perfect square
  index_t n;
  index_t k;
  int layers;
};

GnnConfig make_config(const DistCase& p) {
  GnnConfig cfg;
  cfg.kind = p.kind;
  cfg.in_features = p.k;
  cfg.layer_widths.assign(static_cast<std::size_t>(p.layers), p.k);
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 4242;
  return cfg;
}

class DistEngineSweep : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistEngineSweep, InferenceMatchesSequential) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, 5 * p.n, 11 + p.n);
  const CsrMatrix<double> adj =
      p.kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  const auto x = testing::random_dense<double>(p.n, p.k, 13);

  GnnModel<double> seq_model(make_config(p));
  const auto ref = seq_model.infer(adj, x);

  comm::SpmdRuntime::run(p.ranks, [&](comm::Communicator& world) {
    GnnModel<double> model(make_config(p));  // same seed -> identical replica
    DistGnnEngine<double> engine(world, adj, model);
    const auto out = engine.infer(x);
    ASSERT_EQ(out.rows(), ref.rows());
    for (index_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(out.data()[i], ref.data()[i], 1e-8)
          << to_string(p.kind) << " rank " << world.rank() << " elem " << i;
    }
  });
}

TEST_P(DistEngineSweep, TrainingMatchesSequential) {
  const auto& p = GetParam();
  const auto g = testing::small_graph<double>(p.n, 5 * p.n, 17 + p.n);
  const CsrMatrix<double> adj =
      p.kind == ModelKind::kGCN ? graph::sym_normalize(g.adj) : g.adj;
  const CsrMatrix<double> adj_t = adj.transposed();
  const auto x = testing::random_dense<double>(p.n, p.k, 19);
  std::vector<index_t> labels(static_cast<std::size_t>(p.n));
  Rng rng(23);
  for (auto& l : labels) {
    l = static_cast<index_t>(rng.next_bounded(static_cast<std::uint64_t>(p.k)));
  }

  // Sequential reference: 3 SGD steps.
  GnnModel<double> seq_model(make_config(p));
  Trainer<double> trainer(seq_model, std::make_unique<SgdOptimizer<double>>(0.05));
  std::vector<double> ref_losses;
  for (int s = 0; s < 3; ++s) {
    ref_losses.push_back(trainer.step(adj, adj_t, x, labels).loss);
  }

  comm::SpmdRuntime::run(p.ranks, [&](comm::Communicator& world) {
    GnnModel<double> model(make_config(p));
    DistGnnEngine<double> engine(world, adj, model);
    SgdOptimizer<double> opt(0.05);
    for (int s = 0; s < 3; ++s) {
      const auto res = engine.train_step(x, labels, opt);
      ASSERT_NEAR(res.loss, ref_losses[static_cast<std::size_t>(s)], 1e-8)
          << to_string(p.kind) << " step " << s << " rank " << world.rank();
    }
    // Post-training weights must match the sequential run on every rank.
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
      const auto& w_dist = model.layer(l).weights();
      const auto& w_seq = seq_model.layer(l).weights();
      for (index_t i = 0; i < w_seq.size(); ++i) {
        ASSERT_NEAR(w_dist.data()[i], w_seq.data()[i], 1e-8)
            << "layer " << l << " W[" << i << "]";
      }
      const auto& a_dist = model.layer(l).attention_params();
      const auto& a_seq = seq_model.layer(l).attention_params();
      for (std::size_t i = 0; i < a_seq.size(); ++i) {
        ASSERT_NEAR(a_dist[i], a_seq[i], 1e-8) << "layer " << l << " a[" << i << "]";
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistEngineSweep,
    ::testing::Values(DistCase{ModelKind::kGCN, 4, 24, 4, 2},
                      DistCase{ModelKind::kVA, 1, 20, 4, 2},
                      DistCase{ModelKind::kVA, 4, 24, 4, 2},
                      DistCase{ModelKind::kVA, 9, 25, 3, 2},
                      DistCase{ModelKind::kAGNN, 4, 24, 4, 2},
                      DistCase{ModelKind::kAGNN, 9, 26, 3, 2},
                      DistCase{ModelKind::kGAT, 1, 20, 4, 2},
                      DistCase{ModelKind::kGAT, 4, 24, 4, 2},
                      DistCase{ModelKind::kGAT, 9, 26, 3, 3},
                      DistCase{ModelKind::kGAT, 16, 33, 4, 2},
                      DistCase{ModelKind::kGCN, 9, 25, 3, 3},
                      DistCase{ModelKind::kGIN, 4, 24, 4, 2},
                      DistCase{ModelKind::kGIN, 9, 26, 3, 2},
                      DistCase{ModelKind::kVA, 16, 33, 4, 2}),
    [](const auto& info) {
      return std::string(to_string(info.param.kind)) + "_p" +
             std::to_string(info.param.ranks) + "_n" + std::to_string(info.param.n) +
             "_L" + std::to_string(info.param.layers);
    });

TEST(DistEngine, MaskedTrainingMatchesSequential) {
  const index_t n = 24, k = 3;
  const auto g = testing::small_graph<double>(n, 100, 29);
  const CsrMatrix<double> adj_t = g.adj.transposed();
  const auto x = testing::random_dense<double>(n, k, 31);
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    labels[static_cast<std::size_t>(i)] = i % k;
    mask[static_cast<std::size_t>(i)] = (i % 3) != 0;
  }
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = k;
  cfg.layer_widths = {k, k};
  cfg.seed = 71;
  GnnModel<double> seq(cfg);
  Trainer<double> trainer(seq, std::make_unique<SgdOptimizer<double>>(0.02));
  const double ref_loss = trainer.step(g.adj, adj_t, x, labels, mask).loss;

  comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    DistGnnEngine<double> engine(world, g.adj, model);
    SgdOptimizer<double> opt(0.02);
    const auto res = engine.train_step(x, labels, opt, mask);
    EXPECT_NEAR(res.loss, ref_loss, 1e-9);
  });
}

// Each rank slices its rows out of the replicated labels and mask; a short
// one must be rejected up front instead of read past its end on the last
// rank. The assert fires inside a simulated rank, which ends the process.
TEST(DistEngineDeath, TrainStepRejectsShortLabelsAndMask) {
  // Re-execute for the child rather than fork: earlier tests in this binary
  // may have started an OpenMP thread pool, which a forked child inherits
  // in a broken state.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const index_t n = 16, k = 3;
  const auto g = testing::small_graph<double>(n, 60, 5);
  const auto x = testing::random_dense<double>(n, k, 6);
  GnnConfig cfg;
  cfg.kind = ModelKind::kGCN;
  cfg.in_features = k;
  cfg.layer_widths = {k};
  const auto step = [&](std::size_t n_labels, std::size_t n_mask) {
    comm::SpmdRuntime::run(4, [&](comm::Communicator& world) {
      GnnModel<double> model(cfg);
      DistGnnEngine<double> engine(world, g.adj, model);
      SgdOptimizer<double> opt(0.1);
      const std::vector<index_t> labels(n_labels, 0);
      const std::vector<std::uint8_t> mask(n_mask, 1);
      engine.train_step(x, labels, opt, mask);
    });
  };
  EXPECT_DEATH(step(n - 1, 0), "labels must hold one entry per vertex");
  EXPECT_DEATH(step(n, n - 1), "mask must be empty or hold one entry");
}

TEST(DistEngine, NonSquareRankCountRejected) {
  // The 1.5D engine requires a perfect-square rank count (square grid); the
  // check fires deterministically on every rank before any collective, and
  // the structured error must name the family members that DO accept the
  // count so the failure is actionable.
  for (const int p : {2, 3, 6, 8, 12}) {
    try {
      ProcessGrid::side_for(p);
      FAIL() << "side_for must reject non-square p=" << p;
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("AGNN_DIST=1d"), std::string::npos) << msg;
      EXPECT_NE(msg.find("AGNN_DIST=2d"), std::string::npos) << msg;
      EXPECT_NE(msg.find("AGNN_DIST=3d"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(ProcessGrid::try_side_for(12), std::nullopt);
  EXPECT_EQ(ProcessGrid::try_side_for(9), 3);
}

}  // namespace
}  // namespace agnn::dist
