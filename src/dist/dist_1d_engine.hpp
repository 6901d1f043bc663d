// A naive 1D A-stationary distributed engine — the design-choice ablation
// for Section 6.3's adoption of the 1.5D scheme.
//
// Rows of A (and of every per-edge sparse matrix) are 1D block-partitioned;
// computing a rank's Psi / aggregation rows requires the FULL feature
// matrix, so every layer allgathers H (n*k words per rank) and the backward
// pass additionally allreduces the column-side gradient contributions
// (2*n*k words). Per layer, per rank:
//
//        1D global:   Theta(n k)
//        1.5D global:  O(n k / sqrt(p))     (dist_engine.hpp)
//
// which is exactly the gap the 1.5D scheme buys. The engines compute
// identical results (tests assert equality), so bench_comm_volume can
// compare them purely on data movement. Step plumbing (layer loop, loss,
// gradient chaining) comes from the shared EngineCoreBase.
#pragma once

#include <vector>

#include "dist/engine_core.hpp"

namespace agnn::dist {

template <typename T>
struct Dist1dLayerCache {
  DenseMatrix<T> h_full;      // the allgathered H^l (every rank)
  DenseMatrix<T> z_own;       // Z^l, owned rows
  CsrMatrix<T> psi_loc;       // Psi rows
  CsrMatrix<T> cos_loc;       // AGNN cosine rows
  CsrMatrix<T> scores_pre_loc;
  DenseMatrix<T> hp_full;     // GAT: H' = H W (full, computed redundantly)
  DenseMatrix<T> ph_own;      // pre-W aggregate rows; GIN: X rows
  DenseMatrix<T> mlp_pre_own;
  DenseMatrix<T> mlp_hidden_own;
};

template <typename T>
class Dist1dGlobalEngine
    : public EngineCoreBase<T, GnnModel<T>, Dist1dLayerCache<T>,
                            Dist1dGlobalEngine<T>> {
  using Base = EngineCoreBase<T, GnnModel<T>, Dist1dLayerCache<T>,
                              Dist1dGlobalEngine<T>>;
  friend Base;

 public:
  using LayerCache = Dist1dLayerCache<T>;
  using Grads = LayerGrads<T>;
  static constexpr const char* kForwardSpan = "dist1d.forward";
  static constexpr const char* kTrainSpan = "dist1d.train_step";

  Dist1dGlobalEngine(comm::Communicator& world, const CsrMatrix<T>& a_global,
                     GnnModel<T>& model)
      : Base(world, a_global.rows(), model),
        p_(world.size()),
        vr_(block_range(this->n_, p_, world.rank())) {
    a_loc_ = a_global.block(vr_.begin, vr_.end, 0, this->n_);
  }

  // Owned row blocks partition [0, n) in rank order, so the allgatherv
  // concatenation IS the global matrix.
  DenseMatrix<T> gather_output(const DenseMatrix<T>& h_own) {
    DenseMatrix<T> full;
    allgather_rows_into(h_own, full);
    return full;
  }

 private:
  // ---- engine-core policy hooks ---------------------------------------------

  BlockRange input_block() const { return vr_; }
  // Row blocks are disjoint: every rank's loss contribution counts.
  bool counts_in_loss() const { return true; }
  const DenseMatrix<T>& cached_z(const Dist1dLayerCache<T>& c) const {
    return c.z_own;
  }

  // Allgather owned row blocks into the full matrix (in rank order — the
  // n*k-per-rank cost that defines this scheme), into caller storage.
  void allgather_rows_into(const DenseMatrix<T>& own, DenseMatrix<T>& full) {
    const std::vector<T> flat =
        this->world_.allgatherv(std::span<const T>(own.flat()));
    AGNN_ASSERT(static_cast<index_t>(flat.size()) == this->n_ * own.cols(),
                "1d allgather: unexpected size");
    full.resize(this->n_, own.cols());
    std::copy(flat.begin(), flat.end(), full.data());
  }

  DenseMatrix<T> layer_forward(const Layer<T>& layer, const DenseMatrix<T>& h_own,
                               Dist1dLayerCache<T>* cache) {
    AGNN_TRACE_SCOPE("dist1d.layer_forward", kPhase);
    const LayerParams<T> params = broadcast_params(this->world_, layer);
    const DenseMatrix<T>& w = params.w;
    const std::vector<T>& a = params.a;
    const DenseMatrix<T>& w2 = params.w2;

    // All intermediates live in the cache slots (or a throwaway scratch in
    // inference mode), overwritten in place across steps.
    Dist1dLayerCache<T> scratch;
    Dist1dLayerCache<T>& c = cache ? *cache : scratch;
    allgather_rows_into(h_own, c.h_full);

    comm::ComputeRegion t(this->world_.stats());
    switch (layer.kind()) {
      case ModelKind::kGCN: {
        spmm(a_loc_, c.h_full, c.ph_own);
        matmul(c.ph_own, w, c.z_own);
        c.psi_loc = a_loc_;
        break;
      }
      case ModelKind::kGIN: {
        spmm(a_loc_, c.h_full, c.ph_own);
        axpy(T(1) + layer.gin_epsilon(), h_own, c.ph_own);
        matmul(c.ph_own, w, c.mlp_pre_own);
        activate(layer.mlp_activation(), c.mlp_pre_own, c.mlp_hidden_own, T(0.01));
        matmul(c.mlp_hidden_own, w2, c.z_own);
        c.psi_loc = a_loc_;
        break;
      }
      case ModelKind::kVA: {
        sddmm(a_loc_, h_own, c.h_full, c.psi_loc);
        spmm(c.psi_loc, c.h_full, c.ph_own);
        matmul(c.ph_own, w, c.z_own);
        break;
      }
      case ModelKind::kAGNN: {
        sddmm_unweighted(a_loc_, h_own, c.h_full, c.cos_loc);
        auto inv_r = this->ws_.acquire_vec(vr_.size());
        auto inv_c = this->ws_.acquire_vec(this->n_);
        inv_row_norms(h_own, *inv_r);
        inv_row_norms(c.h_full, *inv_c);
        scale_rows_cols<T>(c.cos_loc, inv_r.cspan(), inv_c.cspan(), c.cos_loc);
        hadamard_same_pattern(c.cos_loc, a_loc_, c.psi_loc);
        spmm(c.psi_loc, c.h_full, c.ph_own);
        matmul(c.ph_own, w, c.z_own);
        break;
      }
      case ModelKind::kGAT: {
        matmul(c.h_full, w, c.hp_full);  // redundant full projection per rank
        const index_t k_out = layer.out_features();
        const std::span<const T> a_all(a);
        const auto a1 = a_all.subspan(0, static_cast<std::size_t>(k_out));
        const auto a2 = a_all.subspan(static_cast<std::size_t>(k_out));
        auto s1 = this->ws_.acquire_vec(vr_.size());
        auto s2 = this->ws_.acquire_vec(this->n_);
        for (index_t i = 0; i < vr_.size(); ++i) {  // s1 needs owned rows only
          const T* r = c.hp_full.data() + (vr_.begin + i) * k_out;
          T acc = T(0);
          for (index_t g = 0; g < k_out; ++g) acc += r[g] * a1[static_cast<std::size_t>(g)];
          (*s1)[static_cast<std::size_t>(i)] = acc;
        }
        matvec(c.hp_full, a2, *s2);
        psi_gat<T>(a_loc_, s1.cspan(), s2.cspan(), layer.attention_slope(),
                   c.scores_pre_loc, c.psi_loc);
        spmm(c.psi_loc, c.hp_full, c.z_own);
        break;
      }
    }
    return activate(layer.activation(), c.z_own, T(0.01));
  }

  DenseMatrix<T> layer_backward(const Layer<T>& layer,
                                const Dist1dLayerCache<T>& cache,
                                const DenseMatrix<T>& g_own, LayerGrads<T>& grads) {
    AGNN_TRACE_SCOPE("dist1d.layer_backward", kPhase);
    const DenseMatrix<T>& w = layer.weights();
    const index_t own = vr_.size();
    const index_t k_in = layer.in_features();
    const index_t n = this->n_;
    DenseMatrix<T> h_own = cache.h_full.slice_rows(vr_.begin, vr_.end);

    // Column-side gradient contributions live on all n rows; 1D has no
    // column partition, so they are allreduced as a full n x k matrix —
    // the 2 n k term of this scheme's volume.
    DenseMatrix<T> gamma_full(n, k_in, T(0));
    switch (layer.kind()) {
      case ModelKind::kGCN: {
        comm::ComputeRegion t(this->world_.stats());
        grads.d_w = matmul_tn(cache.ph_own, g_own);
        const DenseMatrix<T> m_own = matmul_nt(g_own, w);
        gamma_full = DenseMatrix<T>(n, k_in, T(0));
        spmm_accumulate_rows(a_loc_.transposed(), m_own, gamma_full);
        break;
      }
      case ModelKind::kGIN: {
        comm::ComputeRegion t(this->world_.stats());
        grads.d_w2 = matmul_tn(cache.mlp_hidden_own, g_own);
        const DenseMatrix<T> d_hidden = matmul_nt(g_own, layer.weights2());
        const DenseMatrix<T> d_pre = activation_backward(
            layer.mlp_activation(), cache.mlp_pre_own, d_hidden, T(0.01));
        grads.d_w = matmul_tn(cache.ph_own, d_pre);
        const DenseMatrix<T> d_x = matmul_nt(d_pre, w);
        spmm_accumulate_rows(a_loc_.transposed(), d_x, gamma_full);
        const T c = T(1) + layer.gin_epsilon();
        for (index_t i = 0; i < own; ++i) {
          T* dst = gamma_full.data() + (vr_.begin + i) * k_in;
          const T* src = d_x.data() + i * k_in;
          for (index_t j = 0; j < k_in; ++j) dst[j] += c * src[j];
        }
        break;
      }
      case ModelKind::kVA: {
        comm::ComputeRegion t(this->world_.stats());
        grads.d_w = matmul_tn(cache.ph_own, g_own);
        const DenseMatrix<T> m_own = matmul_nt(g_own, w);
        const CsrMatrix<T> n_loc = sddmm(a_loc_, m_own, cache.h_full);
        spmm_accumulate_rows(n_loc.transposed(), h_own, gamma_full);
        spmm_accumulate_rows(cache.psi_loc.transposed(), m_own, gamma_full);
        const DenseMatrix<T> nh_own = spmm(n_loc, cache.h_full);
        for (index_t i = 0; i < own; ++i) {
          T* dst = gamma_full.data() + (vr_.begin + i) * k_in;
          const T* src = nh_own.data() + i * k_in;
          for (index_t j = 0; j < k_in; ++j) dst[j] += src[j];
        }
        break;
      }
      case ModelKind::kAGNN: {
        comm::ComputeRegion t(this->world_.stats());
        grads.d_w = matmul_tn(cache.ph_own, g_own);
        const DenseMatrix<T> m_own = matmul_nt(g_own, w);
        const CsrMatrix<T> d_loc = sddmm(a_loc_, m_own, cache.h_full);
        const CsrMatrix<T> dc = hadamard_same_pattern(d_loc, cache.cos_loc);
        const std::vector<T> rs_own = sparse_row_sums(dc);
        const std::vector<T> cs_full = sparse_col_sums(dc);
        const std::vector<T> norms = row_l2_norms(cache.h_full);
        const DenseMatrix<T> hhat = unit_rows(cache.h_full);
        const DenseMatrix<T> hhat_own = hhat.slice_rows(vr_.begin, vr_.end);
        DenseMatrix<T> col_part(n, k_in, T(0));
        spmm_accumulate_rows(d_loc.transposed(), hhat_own, col_part);
        for (index_t j = 0; j < n; ++j) {
          const T nj = norms[static_cast<std::size_t>(j)];
          T* row = col_part.data() + j * k_in;
          if (nj <= T(0)) {
            for (index_t g = 0; g < k_in; ++g) row[g] = T(0);
            continue;
          }
          const T coef = cs_full[static_cast<std::size_t>(j)];
          const T* hh = hhat.data() + j * k_in;
          const T inv = T(1) / nj;
          for (index_t g = 0; g < k_in; ++g) row[g] = (row[g] - coef * hh[g]) * inv;
        }
        axpy(T(1), col_part, gamma_full);
        spmm_accumulate_rows(cache.psi_loc.transposed(), m_own, gamma_full);
        const DenseMatrix<T> dh_own = spmm(d_loc, hhat);
        for (index_t i = 0; i < own; ++i) {
          const T ni = norms[static_cast<std::size_t>(vr_.begin + i)];
          if (ni <= T(0)) continue;
          T* dst = gamma_full.data() + (vr_.begin + i) * k_in;
          const T* src = dh_own.data() + i * k_in;
          const T coef = rs_own[static_cast<std::size_t>(i)];
          const T* hh = hhat.data() + (vr_.begin + i) * k_in;
          const T inv = T(1) / ni;
          for (index_t g = 0; g < k_in; ++g) dst[g] += (src[g] - coef * hh[g]) * inv;
        }
        break;
      }
      case ModelKind::kGAT: {
        comm::ComputeRegion t(this->world_.stats());
        const index_t k_out = layer.out_features();
        const std::span<const T> a_all(layer.attention_params());
        const auto a1 = a_all.subspan(0, static_cast<std::size_t>(k_out));
        const auto a2 = a_all.subspan(static_cast<std::size_t>(k_out));
        const CsrMatrix<T> d_psi =
            sddmm(cache.psi_loc.with_values(T(1)), g_own, cache.hp_full);
        const CsrMatrix<T> d_e = row_softmax_backward(cache.psi_loc, d_psi);
        CsrMatrix<T> d_c = d_e;
        {
          auto v = d_c.vals_mutable();
          const auto pre = cache.scores_pre_loc.vals();
          const T slope = layer.attention_slope();
          for (index_t e = 0; e < d_c.nnz(); ++e) {
            const T ce = pre[static_cast<std::size_t>(e)];
            v[static_cast<std::size_t>(e)] *=
                a_loc_.val_at(e) * (ce > T(0) ? T(1) : slope);
          }
        }
        const std::vector<T> ds1_own = sparse_row_sums(d_c);
        const std::vector<T> ds2_full = sparse_col_sums(d_c);
        // dH' contributions to all rows (column side) + own-row terms.
        DenseMatrix<T> dhp_full(n, k_out, T(0));
        spmm_accumulate_rows(cache.psi_loc.transposed(), g_own, dhp_full);
        for (index_t i = 0; i < own; ++i) {
          T* row = dhp_full.data() + (vr_.begin + i) * k_out;
          const T s = ds1_own[static_cast<std::size_t>(i)];
          for (index_t g = 0; g < k_out; ++g) row[g] += s * a1[static_cast<std::size_t>(g)];
        }
        add_outer_inplace(dhp_full, std::span<const T>(ds2_full), a2);
        grads.d_w = matmul_tn(cache.h_full, dhp_full);
        grads.d_a.assign(static_cast<std::size_t>(2 * k_out), T(0));
        const DenseMatrix<T> hp_own = cache.hp_full.slice_rows(vr_.begin, vr_.end);
        const std::vector<T> da1 = matvec_tn(hp_own, std::span<const T>(ds1_own));
        const std::vector<T> da2 =
            matvec_tn(cache.hp_full, std::span<const T>(ds2_full));
        std::copy(da1.begin(), da1.end(), grads.d_a.begin());
        std::copy(da2.begin(), da2.end(), grads.d_a.begin() + k_out);
        gamma_full = matmul_nt(dhp_full, w);
        break;
      }
    }

    this->world_.allreduce_sum(grads.d_w.flat());
    if (!grads.d_w2.empty()) this->world_.allreduce_sum(grads.d_w2.flat());
    if (!grads.d_a.empty()) this->world_.allreduce_sum(std::span<T>(grads.d_a));
    // The defining 1D cost: the full n x k gradient matrix is allreduced.
    this->world_.allreduce_sum(gamma_full.flat());
    return gamma_full.slice_rows(vr_.begin, vr_.end);
  }

  // spmm into specific rows of a taller output (offset 0 — the transposed
  // local block already spans all n rows).
  static void spmm_accumulate_rows(const CsrMatrix<T>& a, const DenseMatrix<T>& h,
                                   DenseMatrix<T>& out) {
    AGNN_ASSERT(a.rows() == out.rows(), "1d accumulate: row mismatch");
    spmm_accumulate(a, h, out);
  }

  int p_;
  BlockRange vr_;
  CsrMatrix<T> a_loc_;  // owned rows x n
};

}  // namespace agnn::dist
