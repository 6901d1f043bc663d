// Distributed multi-head GAT on the 1.5D process grid: each attention head
// runs the single-head GAT scheme (BlockLayer's GAT head forward and
// backward on the 1.5D layout of dist_engine.hpp — stationary 2D sparse
// blocks, partner feature exchanges, row/column reductions, distributed
// graph softmax), and the heads' outputs are combined per the layer's
// concat/average rule. This file holds only the head loop and that combine;
// the step plumbing is EngineCoreBase's. Per rank, per layer: heads x
// O(n k_head / sqrt(p)) words — multi-head attention multiplies the volume
// by the head count but keeps the sqrt(p) scaling.
#pragma once

#include <vector>

#include "core/multihead_gat.hpp"
#include "dist/dist_engine.hpp"

namespace agnn::dist {

template <typename T>
struct DistMultiHeadCache {
  DenseMatrix<T> h_o;  // layer input, rows C_j
  DenseMatrix<T> z_o;  // combined pre-activation, rows C_j
  std::vector<BlockLayerCache<T>> heads;  // per-head GAT intermediates
};

template <typename T>
class DistMultiHeadGatEngine
    : public EngineCoreBase<T, MultiHeadGat<T>, DistMultiHeadCache<T>,
                            DistMultiHeadGatEngine<T>> {
  using Base = EngineCoreBase<T, MultiHeadGat<T>, DistMultiHeadCache<T>,
                              DistMultiHeadGatEngine<T>>;
  using Head = BlockLayer<T, Layout1_5D<T>>;
  friend Base;

 public:
  using Grads = MultiHeadGrads<T>;
  static constexpr const char* kForwardSpan = "dist_mh_gat.forward";
  static constexpr const char* kTrainSpan = "dist_mh_gat.train_step";

  DistMultiHeadGatEngine(comm::Communicator& world, const CsrMatrix<T>& a_global,
                         MultiHeadGat<T>& model)
      : Base(world, a_global.rows(), model), layout_(world, a_global) {}

  DenseMatrix<T> gather_output(const DenseMatrix<T>& local_b) {
    return layout_.gather_owned(local_b);
  }

 private:
  BlockRange input_block() const { return layout_.owned_block(); }
  bool counts_in_loss() const { return layout_.counts_in_loss(); }
  const DenseMatrix<T>& cached_z(const DistMultiHeadCache<T>& c) const {
    return c.z_o;
  }

  static T head_scale(const MultiHeadGatLayer<T>& layer) {
    return layer.combine() == HeadCombine::kAverage
               ? T(1) / static_cast<T>(layer.num_heads())
               : T(1);
  }
  static index_t head_offset(const MultiHeadGatLayer<T>& layer, int hd) {
    return layer.combine() == HeadCombine::kConcat
               ? static_cast<index_t>(hd) * layer.head_features()
               : 0;
  }

  DenseMatrix<T> layer_forward(const MultiHeadGatLayer<T>& layer,
                               const DenseMatrix<T>& h_b,
                               DistMultiHeadCache<T>* cache) {
    AGNN_TRACE_SCOPE("dist_mh_gat.layer_forward", kPhase);
    const index_t k_head = layer.head_features();
    const index_t out = layer.out_features();
    const T scale = head_scale(layer);
    auto z_r_h = this->ws_.acquire_dense(layout_.r_rows(), out);
    DenseMatrix<T>& z_r = *z_r_h;
    z_r.fill(T(0));
    // Per-head intermediates live in the cache slots (or a throwaway scratch
    // in inference mode), overwritten in place across steps and heads.
    DistMultiHeadCache<T> scratch;
    DistMultiHeadCache<T>& c = cache ? *cache : scratch;
    if (cache) c.h_o = h_b;
    c.heads.resize(static_cast<std::size_t>(layer.num_heads()));
    auto partial_h = this->ws_.acquire_dense(layout_.r_rows(), k_head);
    DenseMatrix<T>& partial = *partial_h;
    for (int hd = 0; hd < layer.num_heads(); ++hd) {
      const LayerParams<T> p =
          broadcast_params(this->world_, layer.head(hd).w, layer.head(hd).a);
      Head::gat_head_forward(layout_, this->ws_, h_b, p.w, p.a,
                             layer.attention_slope(),
                             c.heads[static_cast<std::size_t>(hd)], partial);
      comm::ComputeRegion t(this->world_.stats());
      const index_t off = head_offset(layer, hd);
      for (index_t i = 0; i < z_r.rows(); ++i) {
        T* dst = z_r.data() + i * out + off;
        const T* src = partial.data() + i * k_head;
        for (index_t j = 0; j < k_head; ++j) dst[j] += scale * src[j];
      }
    }
    return Head::to_owned_activated(layout_, layer.activation(), z_r, c.z_o);
  }

  DenseMatrix<T> layer_backward(const MultiHeadGatLayer<T>& layer,
                                const DistMultiHeadCache<T>& cache,
                                const DenseMatrix<T>& g_b, MultiHeadGrads<T>& grads) {
    AGNN_TRACE_SCOPE("dist_mh_gat.layer_backward", kPhase);
    const index_t k_head = layer.head_features();
    const index_t out = layer.out_features();
    const T scale = head_scale(layer);
    DenseMatrix<T> g_r;
    Head::to_r(layout_, g_b, g_r);
    grads.heads.resize(static_cast<std::size_t>(layer.num_heads()));
    DenseMatrix<T> gamma_b(layout_.owned_rows(), layer.in_features(), T(0));

    for (int hd = 0; hd < layer.num_heads(); ++hd) {
      const auto& p = layer.head(hd);
      // Slice/scale the head's gradient in layout R.
      const index_t off = head_offset(layer, hd);
      DenseMatrix<T> gh_r(g_r.rows(), k_head);
      for (index_t i = 0; i < g_r.rows(); ++i) {
        const T* src = g_r.data() + i * out + off;
        T* dst = gh_r.data() + i * k_head;
        for (index_t j = 0; j < k_head; ++j) dst[j] = scale * src[j];
      }
      auto& hg = grads.heads[static_cast<std::size_t>(hd)];
      const DenseMatrix<T> gamma_h = Head::gat_head_backward(
          layout_, p.w, p.a, layer.attention_slope(), cache.h_o,
          cache.heads[static_cast<std::size_t>(hd)], gh_r, hg.d_w, hg.d_a);
      comm::ComputeRegion t(this->world_.stats());
      axpy(T(1), gamma_h, gamma_b);
    }
    return gamma_b;
  }

  Layout1_5D<T> layout_;
};

}  // namespace agnn::dist
