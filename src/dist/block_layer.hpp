// The block-distributed layer: every ModelKind's per-layer math, written once
// for the 1D (dist_1d_engine.hpp), 1.5D (dist_engine.hpp), 2D/3D SUMMA
// (dist_summa_engine.hpp) and multi-head 1.5D (dist_multihead.hpp) engines.
//
// All of them distribute the adjacency (and every per-edge sparse matrix) in
// static blocks that never move, and keep tall dense matrices in three row
// layouts:
//
//   * owned ("_o"): the rows a rank holds between layers (its row block in
//     1D, C_j in 1.5D, V_ij in SUMMA); every layer consumes and produces
//     this layout;
//   * column ("_c"): the rows of the rank's A column slice — the operand the
//     local SpMM reads (all n rows in 1D, allgathered; C_j in 1.5D, where it
//     IS the owned block; C_j^l in SUMMA, assembled from panels);
//   * R ("_r"): the A row block R_i, identical on every rank of the row
//     family after the partial sums of the local SpMMs are allreduced (in
//     1D the family is the rank alone and R_i is its owned block).
//
// Per the global formulation (Sections 4-6) the layer is the same sequence
// of tensor ops in every distribution; only the moves between layouts and
// the local Psi-block build + SpMM differ. A layout type supplies exactly
// those:
//
//   void to_r(std::span<const T> x_o, index_t k, std::span<T> out_r)
//   void to_owned(std::span<const T> x_r, index_t k, std::span<T> out_o)
//   void reduce_cols(std::span<const T> x_c, index_t k, std::span<T> out_o)
//                           sum column-partials over the column family
//   const DenseMatrix<T>& col_operand(x_o, x_c)   the SpMM's column operand
//   bool counts_in_loss()   this rank's owned copy is the one that counts
//   bool owns_r_copy()      this rank's R copy is the one that counts
//   void aggregate(kind, h_o, ws, cache)   GCN/GIN/VA/AGNN: Psi block and
//                           local SpMM into the unreduced cache.ph_r
//   void gat_scores(a2, slope, cache)      GAT: raw E block (and hp_c)
//   index_t r_rows(), owned_rows(); row_comm(), world(), a_loc(), a_loc_t()
//   kLayerForwardSpan / kLayerBackwardSpan (+ the engine's kForwardSpan,
//   kTrainSpan)
//
// The verbs move a row-major span of rows x k; matrices and vectors (k = 1)
// both go through them via the row_data / row_width helpers below.
#pragma once

#include <utility>
#include <vector>

#include "dist/engine_core.hpp"

namespace agnn::dist {

// Per-layer intermediates cached by the block-distributed forward pass. The
// multi-head engine keeps one per head (GAT fields only).
template <typename T>
struct BlockLayerCache {
  DenseMatrix<T> h_o;           // H^l, owned rows (the layer input)
  DenseMatrix<T> h_c;           // H^l, column rows (1D, SUMMA; 1.5D reads h_o)
  DenseMatrix<T> h_r;           // H^l rows R_i (GIN/VA/AGNN)
  DenseMatrix<T> z_o;           // Z^l, owned rows
  CsrMatrix<T> psi_loc;         // Psi block
  CsrMatrix<T> cos_loc;         // AGNN: cosine block (Psi before A-weighting)
  DenseMatrix<T> ph_r;          // (Psi H)_Ri; for GIN the full X = (A+(1+e)I)H
  // GIN:
  DenseMatrix<T> mlp_pre_r;     // (X W)_Ri pre-activation
  DenseMatrix<T> mlp_hidden_r;  // sigma_mlp(X W)_Ri
  // GAT:
  DenseMatrix<T> hp_o;          // H' = H W, owned rows
  DenseMatrix<T> hp_c;          // H', column rows (1D, SUMMA; 1.5D reads hp_o)
  CsrMatrix<T> scores_pre_loc;  // C block (pre-LeakyReLU)
  std::vector<T> s1_r, s2_c;
};

// ---- tall operands as row spans ---------------------------------------------

template <typename T>
std::span<const T> row_data(const DenseMatrix<T>& x) { return x.flat(); }
template <typename T>
std::span<const T> row_data(const std::vector<T>& x) { return x; }
template <typename T>
std::span<T> row_data(DenseMatrix<T>& x) { return x.flat(); }
template <typename T>
std::span<T> row_data(std::vector<T>& x) { return x; }
template <typename T>
index_t row_width(const DenseMatrix<T>& x) { return x.cols(); }
template <typename T>
index_t row_width(const std::vector<T>&) { return 1; }
template <typename T>
void resize_rows(DenseMatrix<T>& x, index_t rows, index_t k) { x.resize(rows, k); }
template <typename T>
void resize_rows(std::vector<T>& x, index_t rows, index_t) {
  x.resize(static_cast<std::size_t>(rows));
}

// One row's edge slice [e0, e1) of the GAT score block:
// C = s1 1^T + 1 s2^T sampled on A, E = A ⊙ LeakyReLU(C).
template <typename T>
void gat_edge_scores(const CsrMatrix<T>& a, index_t e0, index_t e1, T s1i,
                     const std::vector<T>& s2_c, T slope, std::span<T> pre,
                     std::span<T> ev) {
  for (index_t e = e0; e < e1; ++e) {
    const T cv = s1i + s2_c[static_cast<std::size_t>(a.col_at(e))];
    pre[static_cast<std::size_t>(e)] = cv;
    ev[static_cast<std::size_t>(e)] = a.val_at(e) * (cv > T(0) ? cv : slope * cv);
  }
}

// ---- local Psi block and SpMM over a whole column operand --------------------
//
// The layouts whose column operand is one whole matrix — the allgathered H
// in 1D, the owned block C_j in 1.5D — build the Psi block and run the local
// SpMM with the library kernels (SUMMA instead pipelines them per panel).
// `h_c` holds the rows of a_loc's columns, c.h_r the rows R_i.

// GCN/GIN/VA/AGNN: the Psi block, then the unreduced c.ph_r = Psi h_c.
template <typename T>
void local_aggregate(ModelKind kind, const CsrMatrix<T>& a_loc,
                     const DenseMatrix<T>& h_c, Workspace<T>& ws,
                     BlockLayerCache<T>& c) {
  switch (kind) {
    case ModelKind::kVA:
      sddmm(a_loc, c.h_r, h_c, c.psi_loc);
      break;
    case ModelKind::kAGNN: {
      // Cosine block: sampled dot products divided by the row/col norms.
      // Norms are local because full feature rows are local in each layout.
      sddmm_unweighted(a_loc, c.h_r, h_c, c.cos_loc);
      auto nr = ws.acquire_vec(c.h_r.rows());
      auto nc = ws.acquire_vec(h_c.rows());
      inv_row_norms(c.h_r, *nr);
      inv_row_norms(h_c, *nc);
      scale_rows_cols<T>(c.cos_loc, nr.cspan(), nc.cspan(), c.cos_loc);
      hadamard_same_pattern(c.cos_loc, a_loc, c.psi_loc);
      break;
    }
    default:  // GCN, GIN: plain aggregation over A
      c.psi_loc = a_loc;
  }
  spmm(c.psi_loc, h_c, c.ph_r);
}

// GAT: s2 = H'_c a2 over the column operand, then the raw E block.
template <typename T>
void local_gat_scores(const CsrMatrix<T>& a_loc, const DenseMatrix<T>& hp_c,
                      std::span<const T> a2, T slope, BlockLayerCache<T>& c) {
  matvec(hp_c, a2, c.s2_c);
  c.scores_pre_loc = a_loc;
  c.psi_loc = a_loc;
  auto pre = c.scores_pre_loc.vals_mutable();
  auto ev = c.psi_loc.vals_mutable();
  for (index_t i = 0; i < a_loc.rows(); ++i) {
    gat_edge_scores(a_loc, a_loc.row_begin(i), a_loc.row_end(i),
                    c.s1_r[static_cast<std::size_t>(i)], c.s2_c, slope, pre, ev);
  }
}

template <typename T, typename Layout>
struct BlockLayer {
  // ---- layout moves over matrices and vectors -------------------------------

  template <typename X>
  static void to_r(Layout& lay, const X& x_o, X& out_r) {
    const index_t k = row_width(x_o);
    resize_rows(out_r, lay.r_rows(), k);
    lay.to_r(row_data(x_o), k, row_data(out_r));
  }

  template <typename X>
  static void to_owned(Layout& lay, const X& x_r, X& out_o) {
    const index_t k = row_width(x_r);
    resize_rows(out_o, lay.owned_rows(), k);
    lay.to_owned(row_data(x_r), k, row_data(out_o));
  }

  template <typename X>
  static X reduce_cols(Layout& lay, const X& x_c) {
    const index_t k = row_width(x_c);
    X out;
    resize_rows(out, lay.owned_rows(), k);
    lay.reduce_cols(row_data(x_c), k, row_data(out));
    return out;
  }

  // ---- forward ---------------------------------------------------------------

  static DenseMatrix<T> forward(Layout& lay, Workspace<T>& ws,
                                const Layer<T>& layer, const DenseMatrix<T>& h_o,
                                BlockLayerCache<T>* cache) {
    AGNN_TRACE_SCOPE(Layout::kLayerForwardSpan, kPhase);
    const LayerParams<T> p = broadcast_params(lay.world(), layer);

    // All intermediates live in the cache slots (or a throwaway scratch in
    // inference mode), overwritten in place across steps.
    BlockLayerCache<T> scratch;
    BlockLayerCache<T>& c = cache ? *cache : scratch;
    if (layer.kind() == ModelKind::kGAT) {
      gat_head_forward(lay, ws, h_o, p.w, p.a, layer.attention_slope(), c,
                       c.ph_r);
    } else {
      // GIN's (1+eps) self term and VA/AGNN's row operand need the R_i rows.
      if (layer.kind() != ModelKind::kGCN) to_r(lay, h_o, c.h_r);
      lay.aggregate(layer.kind(), h_o, ws, c);
      // Partial sums from every column block of the grid row reduce to the
      // full (Psi H)_Ri on each member of the row family.
      lay.row_comm().allreduce_sum(c.ph_r.flat());
    }

    // Z in layout R: for GAT it is the reduced aggregate itself; for the
    // others a pooled buffer holds the projection.
    const DenseMatrix<T>* z_r = &c.ph_r;
    auto z_r_h = ws.acquire_dense(lay.r_rows(), layer.out_features());
    {
      comm::ComputeRegion t(lay.world().stats());
      switch (layer.kind()) {
        case ModelKind::kGAT:
          break;
        case ModelKind::kGIN:
          // X = (A H) + (1+eps) H, then the per-row MLP.
          axpy(T(1) + layer.gin_epsilon(), c.h_r, c.ph_r);
          matmul(c.ph_r, p.w, c.mlp_pre_r);
          activate(layer.mlp_activation(), c.mlp_pre_r, c.mlp_hidden_r, T(0.01));
          matmul(c.mlp_hidden_r, p.w2, *z_r_h);
          z_r = &*z_r_h;
          break;
        default:
          matmul(c.ph_r, p.w, *z_r_h);
          z_r = &*z_r_h;
      }
    }
    DenseMatrix<T> h_out = to_owned_activated(lay, layer.activation(), *z_r, c.z_o);
    if (cache) c.h_o = h_o;
    return h_out;
  }

  // One GAT head: H' = H W and s1 = H' a1 on the owned rows, s1 fetched to
  // layout R, the layout's raw E block, the distributed row softmax, and the
  // local SpMM reduced along the row into z_r = (Psi H')_Ri.
  static void gat_head_forward(Layout& lay, Workspace<T>& ws,
                               const DenseMatrix<T>& h_o, const DenseMatrix<T>& w,
                               std::span<const T> a, T slope,
                               BlockLayerCache<T>& c, DenseMatrix<T>& z_r) {
    const auto k = static_cast<std::size_t>(w.cols());
    std::vector<T> s1_o;
    {
      comm::ComputeRegion t(lay.world().stats());
      matmul(h_o, w, c.hp_o);
      matvec(c.hp_o, a.subspan(0, k), s1_o);
    }
    to_r(lay, s1_o, c.s1_r);
    lay.gat_scores(a.subspan(k), slope, c);
    dist_row_softmax_inplace(c.psi_loc, lay.row_comm(), ws);
    {
      comm::ComputeRegion t(lay.world().stats());
      spmm(c.psi_loc, lay.col_operand(c.hp_o, c.hp_c), z_r);
    }
    lay.row_comm().allreduce_sum(z_r.flat());
  }

  // Z from layout R to the owned rows (linking into the next layer), then
  // the layer activation.
  static DenseMatrix<T> to_owned_activated(Layout& lay, Activation act,
                                           const DenseMatrix<T>& z_r,
                                           DenseMatrix<T>& z_o) {
    to_owned(lay, z_r, z_o);
    DenseMatrix<T> h_out;
    comm::ComputeRegion t(lay.world().stats());
    activate(act, z_o, h_out, T(0.01));
    return h_out;
  }

  // ---- backward --------------------------------------------------------------

  static DenseMatrix<T> backward(Layout& lay, const Layer<T>& layer,
                                 const BlockLayerCache<T>& c,
                                 const DenseMatrix<T>& g_o, LayerGrads<T>& grads) {
    AGNN_TRACE_SCOPE(Layout::kLayerBackwardSpan, kPhase);
    DenseMatrix<T> g_r;
    to_r(lay, g_o, g_r);
    const DenseMatrix<T>& w = layer.weights();
    switch (layer.kind()) {
      case ModelKind::kGCN: return backward_gcn(lay, c, g_r, grads, w);
      case ModelKind::kVA: return backward_va(lay, c, g_r, grads, w);
      case ModelKind::kAGNN: return backward_agnn(lay, c, g_r, grads, w);
      case ModelKind::kGIN: return backward_gin(lay, layer, c, g_r, grads, w);
      case ModelKind::kGAT:
        return gat_head_backward(lay, w, layer.attention_params(),
                                 layer.attention_slope(), c.h_o, c, g_r,
                                 grads.d_w, grads.d_a);
    }
    AGNN_ASSERT(false, "unknown model kind");
    return {};
  }

  // One GAT head's backward from G in layout R: fills d_w and d_a (globally
  // reduced) and returns Gamma = dL/dH on the owned rows.
  static DenseMatrix<T> gat_head_backward(Layout& lay, const DenseMatrix<T>& w,
                                          std::span<const T> a, T slope,
                                          const DenseMatrix<T>& h_o,
                                          const BlockLayerCache<T>& c,
                                          const DenseMatrix<T>& g_r,
                                          DenseMatrix<T>& d_w, std::vector<T>& d_a) {
    const index_t k_out = w.cols();
    const auto a1 = a.subspan(0, static_cast<std::size_t>(k_out));
    const auto a2 = a.subspan(static_cast<std::size_t>(k_out));
    const CsrMatrix<T>& a_loc = lay.a_loc();

    CsrMatrix<T> d_psi;
    std::vector<T> dots_r(static_cast<std::size_t>(lay.r_rows()), T(0));
    {
      comm::ComputeRegion t(lay.world().stats());
      d_psi = sddmm(c.psi_loc.with_values(T(1)), g_r, lay.col_operand(c.hp_o, c.hp_c));
      for (index_t i = 0; i < c.psi_loc.rows(); ++i) {
        T acc = T(0);
        for (index_t e = c.psi_loc.row_begin(i); e < c.psi_loc.row_end(i); ++e) {
          acc += c.psi_loc.val_at(e) * d_psi.val_at(e);
        }
        dots_r[static_cast<std::size_t>(i)] = acc;
      }
    }
    // The softmax Jacobian's per-row dot spans the whole row family.
    lay.row_comm().allreduce_sum(std::span<T>(dots_r));

    std::vector<T> ds1_r, ds2_c;
    DenseMatrix<T> dhp_c;
    {
      comm::ComputeRegion t(lay.world().stats());
      CsrMatrix<T> d_c = d_psi;
      auto v = d_c.vals_mutable();
      const auto pre = c.scores_pre_loc.vals();
      for (index_t i = 0; i < d_c.rows(); ++i) {
        const T dot = dots_r[static_cast<std::size_t>(i)];
        for (index_t e = d_c.row_begin(i); e < d_c.row_end(i); ++e) {
          const T de = c.psi_loc.val_at(e) * (d_psi.val_at(e) - dot);
          const T cv = pre[static_cast<std::size_t>(e)];
          v[static_cast<std::size_t>(e)] =
              de * a_loc.val_at(e) * (cv > T(0) ? T(1) : slope);
        }
      }
      ds1_r = sparse_row_sums(d_c);
      ds2_c = sparse_col_sums(d_c);
      dhp_c = spmm(c.psi_loc.transposed(), g_r);
    }
    lay.row_comm().allreduce_sum(std::span<T>(ds1_r));
    const std::vector<T> ds2_o = reduce_cols(lay, ds2_c);
    DenseMatrix<T> dhp_o = reduce_cols(lay, dhp_c);
    std::vector<T> ds1_o;
    to_owned(lay, ds1_r, ds1_o);
    {
      comm::ComputeRegion t(lay.world().stats());
      add_outer_inplace(dhp_o, std::span<const T>(ds1_o), a1);
      add_outer_inplace(dhp_o, std::span<const T>(ds2_o), a2);
    }

    // Parameter gradients: owned-layout contributions are replicated, so
    // only the counting copy contributes before the global allreduce.
    d_w = DenseMatrix<T>(w.rows(), w.cols(), T(0));
    d_a.assign(static_cast<std::size_t>(2 * k_out), T(0));
    if (lay.counts_in_loss()) {
      comm::ComputeRegion t(lay.world().stats());
      d_w = matmul_tn(h_o, dhp_o);
      const std::vector<T> da1 = matvec_tn(c.hp_o, std::span<const T>(ds1_o));
      const std::vector<T> da2 = matvec_tn(c.hp_o, std::span<const T>(ds2_o));
      std::copy(da1.begin(), da1.end(), d_a.begin());
      std::copy(da2.begin(), da2.end(), d_a.begin() + k_out);
    }
    lay.world().allreduce_sum(d_w.flat());
    lay.world().allreduce_sum(std::span<T>(d_a));

    comm::ComputeRegion t(lay.world().stats());
    return matmul_nt(dhp_o, w);
  }

 private:
  static DenseMatrix<T> backward_gcn(Layout& lay, const BlockLayerCache<T>& c,
                                     const DenseMatrix<T>& g_r,
                                     LayerGrads<T>& grads, const DenseMatrix<T>& w) {
    grads.d_w = weight_grad_r(lay, c.ph_r, g_r);
    DenseMatrix<T> gamma_c;
    {
      comm::ComputeRegion t(lay.world().stats());
      const DenseMatrix<T> m_r = matmul_nt(g_r, w);
      gamma_c = spmm(lay.a_loc_t(), m_r);
    }
    return reduce_cols(lay, gamma_c);
  }

  // GIN: dW2 = hidden^T G, dPre = (G W2^T) ⊙ sigma_mlp'(pre),
  // dW = X^T dPre, dX = dPre W^T, Gamma = A^T dX + (1+eps) dX.
  // All tall operands are cached in layout R.
  static DenseMatrix<T> backward_gin(Layout& lay, const Layer<T>& layer,
                                     const BlockLayerCache<T>& c,
                                     const DenseMatrix<T>& g_r,
                                     LayerGrads<T>& grads, const DenseMatrix<T>& w) {
    grads.d_w2 = weight_grad_r(lay, c.mlp_hidden_r, g_r);
    DenseMatrix<T> dx_r, gamma_c;
    {
      comm::ComputeRegion t(lay.world().stats());
      const DenseMatrix<T> d_hidden = matmul_nt(g_r, layer.weights2());
      const DenseMatrix<T> d_pre = activation_backward(
          layer.mlp_activation(), c.mlp_pre_r, d_hidden, T(0.01));
      grads.d_w = DenseMatrix<T>(w.rows(), w.cols(), T(0));
      if (lay.owns_r_copy()) grads.d_w = matmul_tn(c.ph_r, d_pre);
      dx_r = matmul_nt(d_pre, w);
      gamma_c = spmm(lay.a_loc_t(), dx_r);
    }
    lay.world().allreduce_sum(grads.d_w.flat());
    DenseMatrix<T> gamma_o = reduce_cols(lay, gamma_c);
    DenseMatrix<T> dx_o;
    to_owned(lay, dx_r, dx_o);
    comm::ComputeRegion t(lay.world().stats());
    axpy(T(1) + layer.gin_epsilon(), dx_o, gamma_o);
    return gamma_o;
  }

  static DenseMatrix<T> backward_va(Layout& lay, const BlockLayerCache<T>& c,
                                    const DenseMatrix<T>& g_r,
                                    LayerGrads<T>& grads, const DenseMatrix<T>& w) {
    grads.d_w = weight_grad_r(lay, c.ph_r, g_r);
    const DenseMatrix<T>& h_c = lay.col_operand(c.h_o, c.h_c);
    DenseMatrix<T> nh_r, gamma2_c;
    {
      comm::ComputeRegion t(lay.world().stats());
      // N block = A ⊙ (M H^T): the backward SDDMM on the stationary pattern.
      const DenseMatrix<T> m_r = matmul_nt(g_r, w);
      const CsrMatrix<T> n_loc = sddmm(lay.a_loc(), m_r, h_c);
      nh_r = spmm(n_loc, h_c);
      gamma2_c = spmm(n_loc.transposed(), c.h_r);
      spmm_accumulate(c.psi_loc.transposed(), m_r, gamma2_c);
    }
    lay.row_comm().allreduce_sum(nh_r.flat());
    DenseMatrix<T> gamma_o = reduce_cols(lay, gamma2_c);
    DenseMatrix<T> nh_o;
    to_owned(lay, nh_r, nh_o);
    comm::ComputeRegion t(lay.world().stats());
    axpy(T(1), nh_o, gamma_o);
    return gamma_o;
  }

  static DenseMatrix<T> backward_agnn(Layout& lay, const BlockLayerCache<T>& c,
                                      const DenseMatrix<T>& g_r,
                                      LayerGrads<T>& grads, const DenseMatrix<T>& w) {
    grads.d_w = weight_grad_r(lay, c.ph_r, g_r);
    const DenseMatrix<T>& h_c = lay.col_operand(c.h_o, c.h_c);
    DenseMatrix<T> dh_r, dth_c, gamma_agg_c;
    std::vector<T> rs_r, cs_c;
    {
      comm::ComputeRegion t(lay.world().stats());
      const DenseMatrix<T> m_r = matmul_nt(g_r, w);
      const CsrMatrix<T> d_loc = sddmm(lay.a_loc(), m_r, h_c);
      const CsrMatrix<T> dc = hadamard_same_pattern(d_loc, c.cos_loc);
      rs_r = sparse_row_sums(dc);
      cs_c = sparse_col_sums(dc);
      dh_r = spmm(d_loc, unit_rows(h_c));
      dth_c = spmm(d_loc.transposed(), unit_rows(c.h_r));
      gamma_agg_c = spmm(c.psi_loc.transposed(), m_r);
    }
    lay.row_comm().allreduce_sum(std::span<T>(rs_r));
    lay.row_comm().allreduce_sum(dh_r.flat());
    const std::vector<T> cs_o = reduce_cols(lay, cs_c);
    const DenseMatrix<T> dth_o = reduce_cols(lay, dth_c);
    const DenseMatrix<T> gamma_agg_o = reduce_cols(lay, gamma_agg_c);
    std::vector<T> rs_o;
    to_owned(lay, rs_r, rs_o);
    DenseMatrix<T> sum_o;
    to_owned(lay, dh_r, sum_o);

    comm::ComputeRegion t(lay.world().stats());
    axpy(T(1), dth_o, sum_o);
    const std::vector<T> norms_o = row_l2_norms(c.h_o);
    const DenseMatrix<T> hhat_o = unit_rows(c.h_o);
    const index_t k = sum_o.cols();
    for (index_t i = 0; i < sum_o.rows(); ++i) {
      const T ni = norms_o[static_cast<std::size_t>(i)];
      T* row = sum_o.data() + i * k;
      if (ni <= T(0)) {
        for (index_t j = 0; j < k; ++j) row[j] = T(0);
        continue;
      }
      const T coef =
          rs_o[static_cast<std::size_t>(i)] + cs_o[static_cast<std::size_t>(i)];
      const T* hh = hhat_o.data() + i * k;
      const T inv = T(1) / ni;
      for (index_t j = 0; j < k; ++j) row[j] = (row[j] - coef * hh[j]) * inv;
    }
    axpy(T(1), gamma_agg_o, sum_o);
    return sum_o;
  }

  // dW = sum_i X_Ri^T G_Ri: layout-R values are identical across the row
  // family, so only its counting member contributes, then allreduce.
  static DenseMatrix<T> weight_grad_r(Layout& lay, const DenseMatrix<T>& x_r,
                                      const DenseMatrix<T>& g_r) {
    DenseMatrix<T> dw(x_r.cols(), g_r.cols(), T(0));
    if (lay.owns_r_copy()) {
      comm::ComputeRegion t(lay.world().stats());
      dw = matmul_tn(x_r, g_r);
    }
    lay.world().allreduce_sum(dw.flat());
    return dw;
  }
};

// A GnnModel engine over one block layout: the EngineCoreBase step plumbing
// plus the shared layer. Constructor arguments after the model go to the
// layout (the SUMMA grid shape or policy).
template <typename T, typename Layout>
class BlockEngine
    : public EngineCoreBase<T, GnnModel<T>, BlockLayerCache<T>,
                            BlockEngine<T, Layout>> {
  using Base = EngineCoreBase<T, GnnModel<T>, BlockLayerCache<T>,
                              BlockEngine<T, Layout>>;
  using Math = BlockLayer<T, Layout>;
  friend Base;

 public:
  using Grads = LayerGrads<T>;
  static constexpr const char* kForwardSpan = Layout::kForwardSpan;
  static constexpr const char* kTrainSpan = Layout::kTrainSpan;

  // Collective constructor: every rank passes the same global adjacency and
  // a model replica (identical across ranks by construction — same config
  // seed). Block extraction is local; initial data distribution is not
  // charged, matching the paper's accounting.
  template <typename... GridArgs>
  BlockEngine(comm::Communicator& world, const CsrMatrix<T>& a_global,
              GnnModel<T>& model, GridArgs&&... grid)
      : Base(world, a_global.rows(), model),
        layout_(world, a_global, std::forward<GridArgs>(grid)...) {}

  // Reassemble an owned-layout distributed matrix into the global matrix.
  DenseMatrix<T> gather_output(const DenseMatrix<T>& local_o) {
    return layout_.gather_owned(local_o);
  }

 private:
  BlockRange input_block() const { return layout_.owned_block(); }
  bool counts_in_loss() const { return layout_.counts_in_loss(); }
  const DenseMatrix<T>& cached_z(const BlockLayerCache<T>& c) const { return c.z_o; }

  DenseMatrix<T> layer_forward(const Layer<T>& layer, const DenseMatrix<T>& h_o,
                               BlockLayerCache<T>* cache) {
    return Math::forward(layout_, this->ws_, layer, h_o, cache);
  }
  DenseMatrix<T> layer_backward(const Layer<T>& layer, const BlockLayerCache<T>& cache,
                                const DenseMatrix<T>& g_o, LayerGrads<T>& grads) {
    return Math::backward(layout_, layer, cache, g_o, grads);
  }

  Layout layout_;
};

}  // namespace agnn::dist
