// SUMMA-style 2D / 3D distributed execution of the global formulations.
//
// The adjacency (and every per-edge sparse matrix) is distributed in static
// blocks over an r x c x d grid of p = r*c*d ranks: rank (i, j, l) owns the
// A block with rows R_i and columns C_j^l, where the C_j^l slices for
// l = 0..d-1 partition the column block C_j — an r x (c*d) partition of A,
// so depth replicates the *dense* operands, never the sparse matrix.
// Tall dense matrices live in three layouts:
//
//   * layout V ("owned"): rank (i, j, l) owns rows V_ij, the i-th sub-block
//     of C_j; the V blocks partition [0, n) and are replicated over depth.
//     Every layer consumes and produces this layout.
//   * layout C ("stationary input"): rows C_j^l, assembled per layer from
//     the owning ranks by a sequence of r panel broadcasts down the grid
//     column — the SUMMA stages.
//   * layout R ("output"): rows R_i, identical on the c*d ranks of the row
//     family after the partial sums of A_i,(j,l) H_(j,l) are allreduced.
//
// The SUMMA stages are *pipelined*: the panel for stage t+1 is posted as an
// ibroadcast (comm/communicator.hpp) while the local kernel for stage t
// runs, so the broadcast span of panel t+1 overlaps the "summa.stage_spmm"
// compute span of panel t in the trace. Volume and results are identical to
// the blocking schedule by construction (Pending::wait charges exactly what
// the blocking collective charges).
//
// Per layer and rank this moves O(nk/c + nk/r + k^2) words — minimized at
// r = c = sqrt(p) (d = 1), the classic 2D SpMM bound; dist/volume_model.hpp
// carries the exact per-rank accounting for the crossover sweeps.
//
// The step plumbing lives in EngineCoreBase and the per-model layer math in
// BlockLayer (dist/block_layer.hpp); this file holds only the SUMMA layout:
// its grid, its layout verbs, and the local Psi-block build + SpMM, which
// run as the pipelined panel stages.
#pragma once

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "dist/block_layer.hpp"
#include "dist/dist_policy.hpp"
#include "graph/graph.hpp"

namespace agnn::dist {

template <typename T>
class SummaLayout {
 public:
  static constexpr const char* kForwardSpan = "summa.forward";
  static constexpr const char* kTrainSpan = "summa.train_step";
  static constexpr const char* kLayerForwardSpan = "summa.layer_forward";
  static constexpr const char* kLayerBackwardSpan = "summa.layer_backward";

  // Every rank passes the same global adjacency and the same grid shape
  // (rows*cols*depth == p).
  SummaLayout(comm::Communicator& world, const CsrMatrix<T>& a_global,
              const GridShape& shape)
      : world_(world),
        n_(a_global.rows()),
        r_(shape.rows),
        c_(shape.cols),
        d_(shape.depth),
        gl_(world.rank() / (shape.rows * shape.cols)),
        gi_((world.rank() % (shape.rows * shape.cols)) / shape.cols),
        gj_(world.rank() % shape.cols),
        // Row family (fixed i): the c*d ranks whose partials sum to R_i.
        row_comm_(world.split(gi_, world.rank())),
        // Column family (fixed j): the r*d ranks that assemble C_j.
        colfam_comm_(world.split(gj_, world.rank())),
        // SUMMA slice (fixed j and l): the r ranks a panel broadcast spans;
        // keyed by grid row, so group rank == i and stage t's root is t.
        slice_comm_(world.split(gj_ * shape.depth + gl_, gi_)) {
    AGNN_ASSERT(a_global.rows() == a_global.cols(), "adjacency must be square");
    AGNN_ASSERT(shape.size() == world.size(),
                "grid shape must match the rank count");
    ri_ = block_range(n_, r_, gi_);
    cj_ = block_range(n_, c_, gj_);
    const BlockRange ds = block_range(cj_.size(), d_, gl_);
    cs_ = {cj_.begin + ds.begin, cj_.begin + ds.end};
    const BlockRange vs = block_range(cj_.size(), r_, gi_);
    v_ = {cj_.begin + vs.begin, cj_.begin + vs.end};
    a_loc_ = a_global.block(ri_.begin, ri_.end, cs_.begin, cs_.end);
    a_loc_t_ = a_loc_.transposed();
    build_stage_index();
  }

  // Convenience: derive the grid from a policy (AGNN_DIST=2d / 3d routing).
  SummaLayout(comm::Communicator& world, const CsrMatrix<T>& a_global,
              DistPolicy policy = DistPolicy::k2D, int depth_hint = 0)
      : SummaLayout(world, a_global, grid_for(policy, world.size(), depth_hint)) {}

  comm::Communicator& world() { return world_; }
  comm::Communicator& row_comm() { return row_comm_; }
  const CsrMatrix<T>& a_loc() const { return a_loc_; }
  const CsrMatrix<T>& a_loc_t() const { return a_loc_t_; }
  BlockRange owned_block() const { return v_; }
  index_t owned_rows() const { return v_.size(); }
  index_t r_rows() const { return ri_.size(); }

  // V blocks are replicated across depth slices, R blocks across the row
  // family: depth 0 (and, for R, grid column 0) holds the copy that counts
  // in sums over the global vertex set (loss, output gather, gradients).
  bool counts_in_loss() const { return gl_ == 0; }
  bool owns_r_copy() const { return gj_ == 0 && gl_ == 0; }

  // ---- layout verbs ----------------------------------------------------------

  void to_r(std::span<const T> x_o, index_t k, std::span<T> out_r) {
    gather_rows(x_o, k, ri_, out_r);
  }
  void to_owned(std::span<const T> x_r, index_t k, std::span<T> out_o) {
    scatter_rows(x_r, k, out_o);
  }

  // Sum backward contributions that land on this rank's A columns (rows
  // C_j^l) over the column family — across grid rows (partial sums) and
  // depth slices (disjoint C_j^l regions of C_j) at once — and slice the
  // owned V rows of the result.
  void reduce_cols(std::span<const T> x_c, index_t k, std::span<T> out_o) {
    std::vector<T> full(static_cast<std::size_t>(cj_.size() * k), T(0));
    std::copy(x_c.begin(), x_c.end(),
              full.begin() + static_cast<std::ptrdiff_t>((cs_.begin - cj_.begin) * k));
    colfam_comm_.allreduce_sum(std::span<T>(full));
    const auto v0 = static_cast<std::ptrdiff_t>((v_.begin - cj_.begin) * k);
    std::copy(full.begin() + v0, full.begin() + v0 + static_cast<std::ptrdiff_t>(out_o.size()),
              out_o.begin());
  }

  const DenseMatrix<T>& col_operand(const DenseMatrix<T>&,
                                    const DenseMatrix<T>& x_c) const {
    return x_c;
  }

  // Reassemble a layout-V distributed matrix into the full global matrix.
  DenseMatrix<T> gather_owned(const DenseMatrix<T>& local_v) {
    AGNN_ASSERT(local_v.rows() == v_.size(), "gather: not an owned-rows block");
    // The V blocks partition [0, n) once per depth slice; depth 0 holds one
    // copy each, and its ranks are world ranks 0..r*c-1 in (i, j) row-major
    // order. Gather those, then reorder: global row order is j-major
    // (V_ij sits inside C_j), while rank order is i-major.
    std::span<const T> contrib;
    if (gl_ == 0) contrib = local_v.flat();
    const std::vector<T> flat = world_.allgatherv(contrib);
    const index_t k = local_v.cols();
    AGNN_ASSERT(static_cast<index_t>(flat.size()) == n_ * k,
                "gather: unexpected total size");
    DenseMatrix<T> out(n_, k);
    std::size_t off = 0;
    for (int i2 = 0; i2 < r_; ++i2) {
      for (int j2 = 0; j2 < c_; ++j2) {
        const BlockRange cjb = block_range(n_, c_, j2);
        const BlockRange sub = block_range(cjb.size(), r_, i2);
        const std::size_t cnt = static_cast<std::size_t>(sub.size() * k);
        std::memcpy(out.data() + (cjb.begin + sub.begin) * k, flat.data() + off,
                    cnt * sizeof(T));
        off += cnt;
      }
    }
    return out;
  }

  // ---- local Psi block and SpMM: the pipelined SUMMA stages -----------------

  void aggregate(ModelKind kind, const DenseMatrix<T>& h_v, Workspace<T>& ws,
                 BlockLayerCache<T>& c) {
    c.psi_loc = a_loc_;
    switch (kind) {
      case ModelKind::kVA:
        // Psi = A ⊙ (H H^T) sampled on the stage's edges, then the stage
        // SpMM — both touch only the just-landed panel rows.
        stage_aggregate(h_v, c, [&](index_t t) {
          auto pv = c.psi_loc.vals_mutable();
          for (index_t i = 0; i < a_loc_.rows(); ++i) {
            for (index_t e = stage_begin(i, t); e < stage_begin(i, t + 1); ++e) {
              pv[static_cast<std::size_t>(e)] =
                  a_loc_.val_at(e) * dot_rows(c.h_r, i, c.h_c, a_loc_.col_at(e));
            }
          }
        });
        break;
      case ModelKind::kAGNN: {
        c.cos_loc = a_loc_;
        auto nr = ws.acquire_vec(ri_.size());
        auto nc = ws.acquire_vec(cs_.size());
        inv_row_norms(c.h_r, *nr);
        stage_aggregate(h_v, c, [&](index_t t) {
          // Column inverse norms become available as each panel lands.
          const index_t pb = panel_loc_[static_cast<std::size_t>(t)];
          const index_t pe = panel_loc_[static_cast<std::size_t>(t) + 1];
          for (index_t x = pb; x < pe; ++x) {
            const T nx = std::sqrt(dot_rows(c.h_c, x, c.h_c, x));
            (*nc)[static_cast<std::size_t>(x)] = nx > T(0) ? T(1) / nx : T(0);
          }
          auto cv = c.cos_loc.vals_mutable();
          auto pv = c.psi_loc.vals_mutable();
          for (index_t i = 0; i < a_loc_.rows(); ++i) {
            const T ni = (*nr)[static_cast<std::size_t>(i)];
            for (index_t e = stage_begin(i, t); e < stage_begin(i, t + 1); ++e) {
              const index_t col = a_loc_.col_at(e);
              const T cos = dot_rows(c.h_r, i, c.h_c, col) * ni *
                            (*nc)[static_cast<std::size_t>(col)];
              cv[static_cast<std::size_t>(e)] = cos;
              pv[static_cast<std::size_t>(e)] = cos * a_loc_.val_at(e);
            }
          }
        });
        break;
      }
      default:  // GCN, GIN: plain aggregation over A
        stage_aggregate(h_v, c, [](index_t) {});
    }
  }

  // The pipelined stages fill the raw E block; the softmax and the
  // aggregation SpMM need the full row, so they run after the loop.
  void gat_scores(std::span<const T> a2, T slope, BlockLayerCache<T>& c) {
    const index_t k_out = c.hp_o.cols();
    c.scores_pre_loc = a_loc_;
    c.psi_loc = a_loc_;
    c.hp_c.resize(cs_.size(), k_out);
    c.s2_c.assign(static_cast<std::size_t>(cs_.size()), T(0));
    pipelined_panels(c.hp_c, c.hp_o, [&](index_t t) {
      comm::ComputeRegion cr(world_.stats());
      AGNN_TRACE_SCOPE("summa.stage_scores", kKernel);
      const index_t pb = panel_loc_[static_cast<std::size_t>(t)];
      const index_t pe = panel_loc_[static_cast<std::size_t>(t) + 1];
      for (index_t x = pb; x < pe; ++x) {
        const T* row = c.hp_c.data() + x * k_out;
        T acc = T(0);
        for (index_t f = 0; f < k_out; ++f) acc += row[f] * a2[static_cast<std::size_t>(f)];
        c.s2_c[static_cast<std::size_t>(x)] = acc;
      }
      auto pre = c.scores_pre_loc.vals_mutable();
      auto ev = c.psi_loc.vals_mutable();
      for (index_t i = 0; i < a_loc_.rows(); ++i) {
        gat_edge_scores(a_loc_, stage_begin(i, t), stage_begin(i, t + 1),
                        c.s1_r[static_cast<std::size_t>(i)], c.s2_c, slope, pre, ev);
      }
    });
  }

 private:
  // ---- SUMMA stage machinery -------------------------------------------------

  // Stage panels: panel t is V_tj ∩ C_j^l — the slice of this rank's A
  // columns owned (in layout V) by grid row t. The panels partition C_j^l in
  // increasing t; panel_loc_ holds their C_j^l-relative begins (size r+1).
  void build_stage_index() {
    panel_loc_.assign(static_cast<std::size_t>(r_) + 1, 0);
    for (int t = 0; t <= r_; ++t) {
      const index_t vb =
          (t == r_) ? cj_.end
                    : cj_.begin + block_range(cj_.size(), r_, t).begin;
      panel_loc_[static_cast<std::size_t>(t)] =
          std::clamp(vb, cs_.begin, cs_.end) - cs_.begin;
    }
    // Per-row edge offsets per stage: stage t of row i covers the edge range
    // [stage_begin(i, t), stage_begin(i, t+1)), the columns inside panel t.
    const index_t rows = a_loc_.rows();
    stage_ptr_.assign(static_cast<std::size_t>(rows * (r_ + 1) + 1), 0);
    for (index_t i = 0; i < rows; ++i) {
      for (index_t e = a_loc_.row_begin(i) + 1; e < a_loc_.row_end(i); ++e) {
        AGNN_ASSERT(a_loc_.col_at(e - 1) < a_loc_.col_at(e),
                    "summa: block columns must be sorted ascending");
      }
      index_t e = a_loc_.row_begin(i);
      for (int t = 0; t <= r_; ++t) {
        while (e < a_loc_.row_end(i) &&
               a_loc_.col_at(e) < panel_loc_[static_cast<std::size_t>(t)]) {
          ++e;
        }
        stage_ptr_[static_cast<std::size_t>(i * (r_ + 1) + t)] = e;
      }
    }
  }

  index_t stage_begin(index_t i, index_t t) const {
    return stage_ptr_[static_cast<std::size_t>(i * (r_ + 1) + t)];
  }

  int rank_of(index_t i, index_t j, int l) const {
    return l * (r_ * c_) + static_cast<int>(i) * c_ + static_cast<int>(j);
  }

  // Post the broadcast of stage t's panel down the SUMMA slice. The root
  // (grid row t) owns the panel rows in layout V and seeds its own layout-C
  // rows first; everyone returns a waitable handle for the in-flight panel.
  comm::Communicator::Pending<T> post_stage(index_t t, DenseMatrix<T>& x_c,
                                            const DenseMatrix<T>& x_v) {
    const index_t k = x_c.cols();
    const index_t pb = panel_loc_[static_cast<std::size_t>(t)];
    const index_t pe = panel_loc_[static_cast<std::size_t>(t) + 1];
    T* dst = x_c.data() + pb * k;
    if (gi_ == static_cast<int>(t) && pe > pb) {
      const T* src = x_v.data() + ((cs_.begin + pb) - v_.begin) * k;
      std::memcpy(dst, src, static_cast<std::size_t>((pe - pb) * k) * sizeof(T));
    }
    return slice_comm_.ibroadcast(
        std::span<T>(dst, static_cast<std::size_t>((pe - pb) * k)),
        static_cast<int>(t));
  }

  // The pipelined SUMMA loop: while stage t's local kernel runs, stage t+1's
  // panel is already in flight — its ibroadcast span brackets the stage-t
  // compute span in the trace. compute_stage(t) may read x_c panel-t rows
  // only; the wait() that lands panel t+1 runs after compute_stage(t).
  template <typename StageFn>
  void pipelined_panels(DenseMatrix<T>& x_c, const DenseMatrix<T>& x_v,
                        StageFn&& compute_stage) {
    using Pending = comm::Communicator::Pending<T>;
    std::optional<Pending> cur(post_stage(0, x_c, x_v));
    std::optional<Pending> next;
    for (index_t t = 0; t < r_; ++t) {
      cur->wait();
      if (t + 1 < r_) next = post_stage(t + 1, x_c, x_v);
      compute_stage(t);
      cur = std::move(next);
      next.reset();
    }
  }

  // The pipelined blockwise SpMM of H: assemble the column rows h_c panel by
  // panel; per stage, fill the panel's Psi entries (stage_psi(t)) and
  // accumulate them against the just-landed rows into the R_i partial.
  template <typename StagePsiFn>
  void stage_aggregate(const DenseMatrix<T>& h_v, BlockLayerCache<T>& c,
                       StagePsiFn&& stage_psi) {
    c.h_c.resize(cs_.size(), h_v.cols());
    c.ph_r.resize(ri_.size(), h_v.cols());
    c.ph_r.set_zero();
    pipelined_panels(c.h_c, h_v, [&](index_t t) {
      comm::ComputeRegion cr(world_.stats());
      AGNN_TRACE_SCOPE("summa.stage_spmm", kKernel);
      stage_psi(t);
      stage_spmm_accumulate(c.psi_loc, c.h_c, t, c.ph_r);
    });
  }

  // One SUMMA stage of the blockwise SpMM: accumulate the panel-t columns of
  // Psi against the just-landed panel rows of X into the R_i partial.
  void stage_spmm_accumulate(const CsrMatrix<T>& psi, const DenseMatrix<T>& x_c,
                             index_t t, DenseMatrix<T>& acc) {
    const index_t k = x_c.cols();
    for (index_t i = 0; i < psi.rows(); ++i) {
      T* out = acc.data() + i * k;
      for (index_t e = stage_begin(i, t); e < stage_begin(i, t + 1); ++e) {
        const T av = psi.val_at(e);
        const T* src = x_c.data() + psi.col_at(e) * k;
        for (index_t f = 0; f < k; ++f) out[f] += av * src[f];
      }
    }
  }

  static T dot_rows(const DenseMatrix<T>& x, index_t i, const DenseMatrix<T>& y,
                    index_t j) {
    const T* xi = x.data() + i * x.cols();
    const T* yj = y.data() + j * y.cols();
    T acc = T(0);
    for (index_t f = 0; f < x.cols(); ++f) acc += xi[f] * yj[f];
    return acc;
  }

  // ---- layout exchanges ------------------------------------------------------

  // Assemble rows [range.begin, range.end) (k elements each) of a layout-V
  // span via one-sided gets from the owners in this rank's depth slice.
  void gather_rows(std::span<const T> x_v, index_t k, const BlockRange& range,
                   std::span<T> out) {
    auto win = world_.expose(x_v);
    index_t x = range.begin;
    while (x < range.end) {
      const index_t j2 = block_index_of(n_, c_, x);
      const BlockRange cjb = block_range(n_, c_, j2);
      const index_t i2 = block_index_of(cjb.size(), r_, x - cjb.begin);
      const BlockRange sub = block_range(cjb.size(), r_, i2);
      const index_t vbeg = cjb.begin + sub.begin;
      const index_t run_end = std::min(range.end, cjb.begin + sub.end);
      win.get(out.subspan(static_cast<std::size_t>((x - range.begin) * k),
                          static_cast<std::size_t>((run_end - x) * k)),
              rank_of(i2, j2, gl_), static_cast<std::size_t>((x - vbeg) * k));
      x = run_end;
    }
    win.close();
  }

  // Redistribute a layout-R span (identical across the row family) to the
  // owned V rows; the owner picked for each run shares this rank's (j, l).
  void scatter_rows(std::span<const T> x_r, index_t k, std::span<T> out) {
    auto win = world_.expose(x_r);
    index_t x = v_.begin;
    while (x < v_.end) {
      const index_t i2 = block_index_of(n_, r_, x);
      const BlockRange rb = block_range(n_, r_, i2);
      const index_t run_end = std::min(v_.end, rb.end);
      win.get(out.subspan(static_cast<std::size_t>((x - v_.begin) * k),
                          static_cast<std::size_t>((run_end - x) * k)),
              rank_of(i2, gj_, gl_), static_cast<std::size_t>((x - rb.begin) * k));
      x = run_end;
    }
    win.close();
  }

  comm::Communicator& world_;
  index_t n_;
  int r_, c_, d_;
  int gl_, gi_, gj_;
  comm::Communicator row_comm_, colfam_comm_, slice_comm_;
  BlockRange ri_;  // A row block R_i
  BlockRange cj_;  // column block C_j (all depth slices)
  BlockRange cs_;  // this rank's A column slice C_j^l
  BlockRange v_;   // owned feature rows V_ij
  CsrMatrix<T> a_loc_;
  CsrMatrix<T> a_loc_t_;
  std::vector<index_t> panel_loc_;  // C_j^l-relative panel begins, size r+1
  std::vector<index_t> stage_ptr_;  // per-row per-stage edge offsets
};

template <typename T>
using DistSummaEngine = BlockEngine<T, SummaLayout<T>>;

}  // namespace agnn::dist
