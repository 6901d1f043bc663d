// A naive 1D A-stationary distributed engine — the design-choice ablation
// for Section 6.3's adoption of the 1.5D scheme.
//
// Rows of A (and of every per-edge sparse matrix) are 1D block-partitioned;
// computing a rank's Psi / aggregation rows requires the FULL feature
// matrix, so every layer allgathers H (H' = H W for GAT: n*k words per rank)
// and the backward pass allreduces each column-side term as a full n-row
// matrix or vector (2*n*k words per n x k term). Per layer, per rank:
//
//        1D global:   Theta(n k)
//        1.5D global:  O(n k / sqrt(p))     (dist_engine.hpp)
//
// which is exactly the gap the 1.5D scheme buys. The engines compute the
// same results (tests assert equality), so bench_comm_volume can compare
// them purely on data movement.
//
// The step plumbing lives in EngineCoreBase and the per-model layer math in
// BlockLayer (dist/block_layer.hpp); this file holds only the 1D layout. Its
// owned rows and its R rows are both the rank's row block, so the row family
// is the rank alone and the moves between them are copies; the column
// operand is the allgathered matrix.
#pragma once

#include <algorithm>
#include <vector>

#include "dist/block_layer.hpp"

namespace agnn::dist {

template <typename T>
class Layout1D {
 public:
  static constexpr const char* kForwardSpan = "dist1d.forward";
  static constexpr const char* kTrainSpan = "dist1d.train_step";
  static constexpr const char* kLayerForwardSpan = "dist1d.layer_forward";
  static constexpr const char* kLayerBackwardSpan = "dist1d.layer_backward";

  Layout1D(comm::Communicator& world, const CsrMatrix<T>& a_global)
      : world_(world),
        n_(a_global.rows()),
        vr_(block_range(n_, world.size(), world.rank())),
        row_comm_(world.split(world.rank(), 0)) {
    a_loc_ = a_global.block(vr_.begin, vr_.end, 0, n_);
    a_loc_t_ = a_loc_.transposed();
  }

  comm::Communicator& world() { return world_; }
  comm::Communicator& row_comm() { return row_comm_; }
  const CsrMatrix<T>& a_loc() const { return a_loc_; }
  const CsrMatrix<T>& a_loc_t() const { return a_loc_t_; }
  BlockRange owned_block() const { return vr_; }
  index_t owned_rows() const { return vr_.size(); }
  index_t r_rows() const { return vr_.size(); }

  // Row blocks are disjoint: every rank's copy counts.
  bool counts_in_loss() const { return true; }
  bool owns_r_copy() const { return true; }

  // ---- layout verbs ----------------------------------------------------------

  void to_r(std::span<const T> x_o, index_t, std::span<T> out_r) {
    std::copy(x_o.begin(), x_o.end(), out_r.begin());
  }
  void to_owned(std::span<const T> x_r, index_t, std::span<T> out_o) {
    std::copy(x_r.begin(), x_r.end(), out_o.begin());
  }
  // Column-side terms land on all n rows: allreduce the n-row partial over
  // the world (the defining 2 n k cost of this scheme) and keep the owned
  // rows.
  void reduce_cols(std::span<const T> x_c, index_t k, std::span<T> out_o) {
    std::vector<T> full(x_c.begin(), x_c.end());
    world_.allreduce_sum(std::span<T>(full));
    const auto o0 = static_cast<std::ptrdiff_t>(vr_.begin * k);
    std::copy(full.begin() + o0,
              full.begin() + o0 + static_cast<std::ptrdiff_t>(out_o.size()),
              out_o.begin());
  }
  const DenseMatrix<T>& col_operand(const DenseMatrix<T>&,
                                    const DenseMatrix<T>& x_c) const {
    return x_c;
  }

  // Owned row blocks partition [0, n) in rank order, so the allgatherv
  // concatenation IS the global matrix — the n*k words per rank that define
  // this scheme.
  DenseMatrix<T> gather_owned(const DenseMatrix<T>& local_o) {
    return DenseMatrix<T>(n_, local_o.cols(), world_.allgatherv(local_o.flat()));
  }

  // ---- local Psi block and SpMM over the allgathered operand ----------------

  void aggregate(ModelKind kind, const DenseMatrix<T>& h_o, Workspace<T>& ws,
                 BlockLayerCache<T>& c) {
    c.h_c = gather_owned(h_o);
    comm::ComputeRegion t(world_.stats());
    local_aggregate(kind, a_loc_, c.h_c, ws, c);
  }

  void gat_scores(std::span<const T> a2, T slope, BlockLayerCache<T>& c) {
    c.hp_c = gather_owned(c.hp_o);
    comm::ComputeRegion t(world_.stats());
    local_gat_scores(a_loc_, c.hp_c, a2, slope, c);
  }

 private:
  comm::Communicator& world_;
  index_t n_;
  BlockRange vr_;
  comm::Communicator row_comm_;  // the rank alone: row-family sums are no-ops
  CsrMatrix<T> a_loc_;           // owned rows x n
  CsrMatrix<T> a_loc_t_;
};

template <typename T>
using Dist1dGlobalEngine = BlockEngine<T, Layout1D<T>>;

}  // namespace agnn::dist
