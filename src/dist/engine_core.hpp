// The policy-parameterized distributed engine core.
//
// Every member of the distribution family (1D row blocks, 1.5D square grid,
// 2D SUMMA, 3D depth-replicated — see dist/dist_policy.hpp), the multi-head
// GAT engine and the ghost-exchange baseline (baseline/dist_local_engine.hpp)
// share the same outer structure: slice the replicated input to the rank's
// block, run the layer loop, compute the loss on owned rows against the
// globally-reduced active count, allreduce the scalar loss, chain activation
// backward through the cached pre-activations, and apply globally-identical
// gradients.
//
// `EngineCoreBase<T, Model, Cache, Derived>` is that shared outer structure
// as a CRTP base over a model type (GnnModel or MultiHeadGat). An engine
// derives from it and provides:
//
//   using Grads                             the model's per-layer gradients
//   BlockRange input_block()                rows of the rank's H block
//   bool counts_in_loss()                   does this rank's block contribute
//                                           to the loss sum (false on ranks
//                                           holding a replica of a block)
//   DenseMatrix<T> layer_forward(layer, h, Cache*)
//   DenseMatrix<T> layer_backward(layer, cache, g, grads)
//   const DenseMatrix<T>& cached_z(cache)   the layer's pre-activation block
//   DenseMatrix<T> gather_output(h)         reassemble the global matrix
//   static constexpr kForwardSpan/kTrainSpan  trace span names
//
// The per-layer math itself lives elsewhere: dist/block_layer.hpp for every
// global-formulation engine (1D, 1.5D, 2D, 3D, multi-head), and the
// baseline's own local-formulation layer for the ghost-exchange engine. The
// free helpers at the bottom (parameter broadcast, distributed row softmax,
// row-normalized copies) are the building blocks both use.
#pragma once

#include <vector>

#include "comm/communicator.hpp"
#include "core/layer.hpp"
#include "core/loss.hpp"
#include "core/model.hpp"
#include "core/optimizer.hpp"
#include "core/workspace.hpp"
#include "dist/process_grid.hpp"
#include "obs/trace.hpp"

namespace agnn::dist {

template <typename T, typename Model, typename Cache, typename Derived>
class EngineCoreBase {
 public:
  // ---- forward -------------------------------------------------------------

  // Full forward pass; x_global is the (replicated) input feature matrix.
  // Returns the final features on the rank's input block. If `caches` is
  // null, runs in inference mode.
  DenseMatrix<T> forward(const DenseMatrix<T>& x_global,
                         std::vector<Cache>* caches) {
    const obs::SpanScope span(Derived::kForwardSpan,
                              obs::SpanCategory::kPhase);
    const BlockRange vb = derived().input_block();
    DenseMatrix<T> h = x_global.slice_rows(vb.begin, vb.end);
    if (caches) caches->resize(model_.num_layers());  // keeps slot storage warm
    for (std::size_t l = 0; l < model_.num_layers(); ++l) {
      h = derived().layer_forward(model_.layer(l), h,
                                  caches ? &(*caches)[l] : nullptr);
    }
    return h;
  }

  // Inference with a final gather of the global output (for validation and
  // examples; the gather itself is a debug output path).
  DenseMatrix<T> infer(const DenseMatrix<T>& x_global) {
    return derived().gather_output(forward(x_global, nullptr));
  }

  // ---- training --------------------------------------------------------------

  struct StepResult {
    T loss = T(0);
  };

  // One full-batch training step. Labels and mask are replicated (like the
  // input features). Gradients are globally allreduced, so the per-rank
  // model replicas stay bitwise in sync.
  StepResult train_step(const DenseMatrix<T>& x_global,
                        std::span<const index_t> labels, Optimizer<T>& opt,
                        std::span<const std::uint8_t> mask = {}) {
    const obs::SpanScope span(Derived::kTrainSpan, obs::SpanCategory::kPhase);
    // Every rank slices its own rows out of the replicated labels and mask,
    // so a short one would be read past its end on the last rank.
    AGNN_ASSERT(static_cast<index_t>(labels.size()) == n_,
                "train_step: labels must hold one entry per vertex");
    AGNN_ASSERT(mask.empty() || static_cast<index_t>(mask.size()) == n_,
                "train_step: mask must be empty or hold one entry per vertex");
    std::vector<Cache>& caches = caches_;  // persistent slots
    const DenseMatrix<T> h = forward(x_global, &caches);

    // Loss on the owned block, normalized by the global active count.
    index_t active = 0;
    for (index_t i = 0; i < static_cast<index_t>(labels.size()); ++i) {
      if (mask.empty() || mask[static_cast<std::size_t>(i)]) ++active;
    }
    const BlockRange vb = derived().input_block();
    const auto local_labels = labels.subspan(static_cast<std::size_t>(vb.begin),
                                             static_cast<std::size_t>(vb.size()));
    const auto local_mask =
        mask.empty() ? mask
                     : mask.subspan(static_cast<std::size_t>(vb.begin),
                                    static_cast<std::size_t>(vb.size()));
    LossResult<T> loss =
        softmax_cross_entropy(h, local_labels, local_mask, active);

    // Scalar loss: ranks holding a replica of a block must not double-count.
    std::vector<T> loss_buf{derived().counts_in_loss() ? loss.value : T(0)};
    world_.allreduce_sum(std::span<T>(loss_buf));

    // G^L = nabla_H L ⊙ sigma'(Z^L), locally on the owned block.
    const auto& last = model_.layer(model_.num_layers() - 1);
    DenseMatrix<T> g = activation_backward(
        last.activation(), derived().cached_z(caches.back()), loss.grad);

    std::vector<typename Derived::Grads> grads(model_.num_layers());
    for (std::size_t l = model_.num_layers(); l-- > 0;) {
      DenseMatrix<T> gamma =
          derived().layer_backward(model_.layer(l), caches[l], g, grads[l]);
      if (l > 0) {
        g = activation_backward(model_.layer(l - 1).activation(),
                                derived().cached_z(caches[l - 1]), gamma);
      }
    }
    model_.apply_gradients(grads, opt);
    return {loss_buf[0]};
  }

  // ---- accessors -------------------------------------------------------------

  index_t num_vertices() const { return n_; }
  Workspace<T>& workspace() { return ws_; }
  const WorkspaceStats& workspace_stats() const { return ws_.stats(); }

  // The world communicator (exposed so the recovery loop can barrier and
  // rendezvous on the same group the engine trains over).
  comm::Communicator& world() { return world_; }

 protected:
  EngineCoreBase(comm::Communicator& world, index_t n, Model& model)
      : world_(world), n_(n), model_(model) {}

  Derived& derived() { return static_cast<Derived&>(*this); }

  comm::Communicator& world_;
  index_t n_;
  Model& model_;
  Workspace<T> ws_;              // per-rank scratch pool
  std::vector<Cache> caches_;    // persistent training caches
};

// ---- shared per-layer building blocks --------------------------------------

// Model parameters are replicated: broadcast from rank 0 (values are
// already identical; this charges the O(k^2) parameter-movement term).
// Empty `a` / `w2` (the kinds without them) are not sent.
template <typename T>
struct LayerParams {
  DenseMatrix<T> w;
  std::vector<T> a;
  DenseMatrix<T> w2;
};

template <typename T>
LayerParams<T> broadcast_params(comm::Communicator& world,
                                const DenseMatrix<T>& w,
                                const std::vector<T>& a,
                                const DenseMatrix<T>& w2 = {}) {
  LayerParams<T> p{w, a, w2};
  world.broadcast(p.w.flat(), 0);
  if (!p.a.empty()) world.broadcast(std::span<T>(p.a), 0);
  if (!p.w2.empty()) world.broadcast(p.w2.flat(), 0);
  return p;
}

template <typename T>
LayerParams<T> broadcast_params(comm::Communicator& world,
                                const Layer<T>& layer) {
  return broadcast_params(world, layer.weights(), layer.attention_params(),
                          layer.weights2());
}

// Distributed graph softmax: per-row max and sum span every rank holding a
// column block of the row (the given communicator: the grid row in 1.5D, the
// row family in 2D/3D — Section 4.2 executed blockwise). Normalizes `s`
// (holding the raw E values) in place; reduction vectors are pooled.
template <typename T>
void dist_row_softmax_inplace(CsrMatrix<T>& s, comm::Communicator& row_comm,
                              Workspace<T>& ws) {
  const index_t rows = s.rows();
  auto row_max_h = ws.acquire_vec(rows);
  std::vector<T>& row_max = *row_max_h;
  std::fill(row_max.begin(), row_max.end(),
            -std::numeric_limits<T>::infinity());
  for (index_t i = 0; i < rows; ++i) {
    for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
      row_max[static_cast<std::size_t>(i)] =
          std::max(row_max[static_cast<std::size_t>(i)], s.val_at(e));
    }
  }
  row_comm.allreduce_max(std::span<T>(row_max));
  auto v = s.vals_mutable();
  auto row_sum_h = ws.acquire_vec(rows);
  std::vector<T>& row_sum = *row_sum_h;
  std::fill(row_sum.begin(), row_sum.end(), T(0));
  for (index_t i = 0; i < rows; ++i) {
    const T mx = row_max[static_cast<std::size_t>(i)];
    for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
      const T ex = std::exp(v[static_cast<std::size_t>(e)] - mx);
      v[static_cast<std::size_t>(e)] = ex;
      row_sum[static_cast<std::size_t>(i)] += ex;
    }
  }
  row_comm.allreduce_sum(std::span<T>(row_sum));
  for (index_t i = 0; i < rows; ++i) {
    const T rs = row_sum[static_cast<std::size_t>(i)];
    if (rs <= T(0)) continue;
    const T inv = T(1) / rs;
    for (index_t e = s.row_begin(i); e < s.row_end(i); ++e) {
      v[static_cast<std::size_t>(e)] *= inv;
    }
  }
}

template <typename T>
void inv_row_norms(const DenseMatrix<T>& h, std::vector<T>& n) {
  row_l2_norms(h, n);
  for (auto& v : n) v = v > T(0) ? T(1) / v : T(0);
}

template <typename T>
DenseMatrix<T> unit_rows(const DenseMatrix<T>& h) {
  DenseMatrix<T> out = h;
  const std::vector<T> n = row_l2_norms(h);
  for (index_t i = 0; i < h.rows(); ++i) {
    const T ni = n[static_cast<std::size_t>(i)];
    if (ni <= T(0)) continue;
    T* row = out.data() + i * h.cols();
    for (index_t j = 0; j < h.cols(); ++j) row[j] /= ni;
  }
  return out;
}

}  // namespace agnn::dist
