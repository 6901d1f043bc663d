// Runtime selection over the distribution-policy family.
//
// The four policies run three engine types, each a BlockEngine over its
// layout (Layout1D, Layout1_5D, SummaLayout for 2D and 3D) and so distinct
// C++ types. `IDistEngine` erases that so benchmarks, the differential
// harness, and examples can pick the distribution at runtime — in
// particular from the AGNN_DIST environment knob (dist/dist_policy.hpp):
//
//   AGNN_DIST=1d | 1.5d | 2d | 3d | auto     (AGNN_DIST_DEPTH=d for 3d)
//
// `make_dist_engine` is collective: every rank must call it with the same
// policy and arguments, like the engine constructors it wraps.
#pragma once

#include <memory>

#include "dist/dist_1d_engine.hpp"
#include "dist/dist_engine.hpp"
#include "dist/dist_policy.hpp"
#include "dist/dist_summa_engine.hpp"

namespace agnn::dist {

template <typename T>
class IDistEngine {
 public:
  virtual ~IDistEngine() = default;

  struct StepResult {
    T loss = T(0);
  };

  virtual DenseMatrix<T> infer(const DenseMatrix<T>& x_global) = 0;
  virtual StepResult train_step(const DenseMatrix<T>& x_global,
                                std::span<const index_t> labels,
                                Optimizer<T>& opt,
                                std::span<const std::uint8_t> mask = {}) = 0;
  virtual comm::Communicator& world() = 0;
  virtual DistPolicy policy() const = 0;
  virtual index_t num_vertices() const = 0;
};

namespace detail_factory {

template <typename T, typename Engine>
class Adapter final : public IDistEngine<T> {
 public:
  template <typename... Args>
  explicit Adapter(DistPolicy policy, Args&&... args)
      : policy_(policy), engine_(std::forward<Args>(args)...) {}

  DenseMatrix<T> infer(const DenseMatrix<T>& x_global) override {
    return engine_.infer(x_global);
  }
  typename IDistEngine<T>::StepResult train_step(
      const DenseMatrix<T>& x_global, std::span<const index_t> labels,
      Optimizer<T>& opt, std::span<const std::uint8_t> mask) override {
    return {engine_.train_step(x_global, labels, opt, mask).loss};
  }
  comm::Communicator& world() override { return engine_.world(); }
  DistPolicy policy() const override { return policy_; }
  index_t num_vertices() const override { return engine_.num_vertices(); }

  Engine& engine() { return engine_; }

 private:
  DistPolicy policy_;
  Engine engine_;
};

}  // namespace detail_factory

// Construct the engine for `policy` (collective). `depth_hint` is the 3D
// replication depth; 0 derives it (smallest prime factor of p). Throws
// std::logic_error with a policy-naming message when the rank count does not
// fit the requested grid (e.g. 1.5d on a non-square p).
template <typename T>
std::unique_ptr<IDistEngine<T>> make_dist_engine(DistPolicy policy,
                                                 comm::Communicator& world,
                                                 const CsrMatrix<T>& a_global,
                                                 GnnModel<T>& model,
                                                 int depth_hint = 0) {
  switch (policy) {
    case DistPolicy::k1D:
      return std::make_unique<
          detail_factory::Adapter<T, Dist1dGlobalEngine<T>>>(policy, world,
                                                             a_global, model);
    case DistPolicy::k1_5D:
      return std::make_unique<detail_factory::Adapter<T, DistGnnEngine<T>>>(
          policy, world, a_global, model);
    case DistPolicy::k2D:
    case DistPolicy::k3D:
      return std::make_unique<detail_factory::Adapter<T, DistSummaEngine<T>>>(
          policy, world, a_global, model,
          grid_for(policy, world.size(), depth_hint));
  }
  AGNN_ASSERT(false, "unknown distribution policy");
  return nullptr;
}

// Environment-routed construction: AGNN_DIST picks the policy (default: the
// best fit for p), AGNN_DIST_DEPTH the 3D depth.
template <typename T>
std::unique_ptr<IDistEngine<T>> make_dist_engine_from_env(
    comm::Communicator& world, const CsrMatrix<T>& a_global,
    GnnModel<T>& model) {
  return make_dist_engine(policy_from_env(world.size()), world, a_global,
                          model, depth_hint_from_env());
}

}  // namespace agnn::dist
