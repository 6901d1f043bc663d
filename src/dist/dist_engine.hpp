// Distributed execution of the global tensor formulations (Section 6.3).
//
// Implements the A-stationary 1.5D scheme on a square sqrt(p) x sqrt(p)
// process grid:
//   * every per-edge sparse matrix (A, Psi, and the backward-pass sampled
//     matrices N and D) is distributed in static 2D blocks and never moves;
//   * tall dense matrices move between "layout B" (input: rows C_j,
//     replicated across the grid column) and "layout R" (output: rows R_i,
//     identical within the grid row) — see process_grid.hpp;
//   * each layer: fetch the transpose-partner's feature block (nk/sqrt(p)
//     words), compute the Psi block with the fused local kernels, SpMM the
//     block, allreduce partial sums along the grid row, and redistribute the
//     output to layout B for the next layer.
//
// Per layer this moves O(nk/sqrt(p) + k^2) words per rank — the global-
// formulation bound of Section 7.1 — for forward, backward, and inference.
// Every byte is charged through the Communicator's volume accounting, which
// the theory-verification benchmark (bench_comm_volume) checks against the
// closed-form bound.
//
// The step plumbing lives in EngineCoreBase and the per-model layer math in
// BlockLayer (dist/block_layer.hpp); this file holds only the 1.5D layout:
// its grid, its layout verbs, and the local Psi-block build + SpMM, which
// run on whole blocks with the library kernels.
#pragma once

#include <algorithm>
#include <vector>

#include "dist/block_layer.hpp"
#include "graph/graph.hpp"

namespace agnn::dist {

template <typename T>
class Layout1_5D {
 public:
  static constexpr const char* kForwardSpan = "dist1_5d.forward";
  static constexpr const char* kTrainSpan = "dist1_5d.train_step";
  static constexpr const char* kLayerForwardSpan = "dist1_5d.layer_forward";
  static constexpr const char* kLayerBackwardSpan = "dist1_5d.layer_backward";

  Layout1_5D(comm::Communicator& world, const CsrMatrix<T>& a_global)
      : world_(world),
        n_(a_global.rows()),
        grid_(ProcessGrid::side_for(world.size())),
        gi_(grid_.row_of(world.rank())),
        gj_(grid_.col_of(world.rank())),
        row_comm_(world.split(gi_, gj_)),
        col_comm_(world.split(grid_.q + gj_, gi_)),
        ri_(block_range(n_, grid_.q, gi_)),
        cj_(block_range(n_, grid_.q, gj_)) {
    AGNN_ASSERT(a_global.rows() == a_global.cols(), "adjacency must be square");
    a_loc_ = a_global.block(ri_.begin, ri_.end, cj_.begin, cj_.end);
    a_loc_t_ = a_loc_.transposed();
  }

  comm::Communicator& world() { return world_; }
  comm::Communicator& row_comm() { return row_comm_; }
  const CsrMatrix<T>& a_loc() const { return a_loc_; }
  const CsrMatrix<T>& a_loc_t() const { return a_loc_t_; }
  BlockRange owned_block() const { return cj_; }
  index_t owned_rows() const { return cj_.size(); }
  index_t r_rows() const { return ri_.size(); }

  // Blocks are replicated across grid rows (layout B) and grid columns
  // (layout R): row 0 and column 0 hold the copies that count in sums over
  // the global vertex set (loss, output gather, parameter gradients).
  bool counts_in_loss() const { return gi_ == 0; }
  bool owns_r_copy() const { return gj_ == 0; }

  // ---- layout verbs ----------------------------------------------------------

  // On the square grid both directions are the transpose-partner exchange.
  void to_r(std::span<const T> x_o, index_t, std::span<T> out_r) {
    partner_exchange(x_o, out_r);
  }
  void to_owned(std::span<const T> x_r, index_t, std::span<T> out_o) {
    partner_exchange(x_r, out_o);
  }
  // The column slice is the owned block C_j: sum it down the grid column.
  void reduce_cols(std::span<const T> x_c, index_t, std::span<T> out_o) {
    std::copy(x_c.begin(), x_c.end(), out_o.begin());
    col_comm_.allreduce_sum(out_o);
  }
  const DenseMatrix<T>& col_operand(const DenseMatrix<T>& x_o,
                                    const DenseMatrix<T>&) const {
    return x_o;
  }

  // Reassemble a layout-B distributed matrix into the full global matrix.
  DenseMatrix<T> gather_owned(const DenseMatrix<T>& local_b) {
    AGNN_ASSERT(local_b.rows() == cj_.size(), "gather: not a layout-B block");
    // Blocks C_0..C_{q-1} are held (among others) by ranks (0, 0)..(0, q-1),
    // which are world ranks 0..q-1 — exactly rank order for allgatherv.
    std::span<const T> contrib;
    if (gi_ == 0) contrib = local_b.flat();
    const std::vector<T> flat = world_.allgatherv(contrib);
    AGNN_ASSERT(static_cast<index_t>(flat.size()) == n_ * local_b.cols(),
                "gather: unexpected total size");
    return DenseMatrix<T>(n_, local_b.cols(), flat);
  }

  // ---- local Psi block and SpMM ----------------------------------------------

  void aggregate(ModelKind kind, const DenseMatrix<T>& h_b, Workspace<T>& ws,
                 BlockLayerCache<T>& c) {
    comm::ComputeRegion t(world_.stats());
    local_aggregate(kind, a_loc_, h_b, ws, c);
  }

  void gat_scores(std::span<const T> a2, T slope, BlockLayerCache<T>& c) {
    comm::ComputeRegion t(world_.stats());
    local_gat_scores(a_loc_, c.hp_o, a2, slope, c);
  }

 private:
  // Transpose-partner exchange: give my block, receive the partner's — my
  // layout-B rows become the partner's layout-R rows and vice versa. One
  // block of nk/sqrt(p) words per rank.
  void partner_exchange(std::span<const T> mine, std::span<T> out) {
    auto win = world_.expose(mine);
    win.get(out, grid_.partner_of(world_.rank()), 0);
    win.close();
  }

  comm::Communicator& world_;
  index_t n_;
  ProcessGrid grid_;
  int gi_, gj_;
  comm::Communicator row_comm_, col_comm_;
  BlockRange ri_, cj_;
  CsrMatrix<T> a_loc_;
  CsrMatrix<T> a_loc_t_;
};

template <typename T>
using DistGnnEngine = BlockEngine<T, Layout1_5D<T>>;

}  // namespace agnn::dist
