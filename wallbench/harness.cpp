// wallbench harness: runs one workload of the wall-clock benchmark through
// the library's public entry points and prints its raw measurements (time
// samples, counters, set-up times, output checks, run context) as one JSON
// object on stdout. run.py turns them into metrics; NOTES.md says why each
// workload and each phase exists.
//
//   wallbench_harness --workload train-gat|dist-gat-p4|serve-zipf
//                     --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Every call into the library is timed from outside. With --trace 1 the
// harness also records its own spans (bench.*) around those calls through
// obs::Tracer, next to the program's own kernel, collective and stage
// spans, and writes the Chrome/Perfetto JSON to --trace-out.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "comm/communicator.hpp"
#include "comm/cost_model.hpp"
#include "core/loss.hpp"
#include "core/model.hpp"
#include "dist/engine_factory.hpp"
#include "graph/graph.hpp"
#include "graph/kronecker.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/batch_forward.hpp"
#include "serve/server.hpp"
#include "serve/zipf.hpp"

namespace wb {

using namespace agnn;
using real_t = float;  // the paper's evaluation precision
using Clock = std::chrono::steady_clock;

// ---- workload constants (NOTES.md records why) ------------------------------

struct GraphSpec {
  int scale;       // n = 2^scale
  double density;  // edge samples = density * n^2, before dedup
  bool self_loops;
};

constexpr GraphSpec kTrainGraph{13, 0.005, true};
constexpr index_t kTrainWidth = 16;  // features, hidden width and classes
constexpr int kTrainLayers = 3;
constexpr real_t kLearningRate = 0.01f;
constexpr int kDistRanks = 4;

constexpr GraphSpec kServeGraph{14, 0.001, false};
constexpr index_t kServeFeatures = 32;
constexpr index_t kServeOutput = 16;
constexpr index_t kServeFanout = 10;
// Two workers: with the client threads of the open loop (a generator and a
// collector) the run never has more busy threads than a 4-core host has
// cores (NOTES.md).
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kServeCacheRows = 2048;
constexpr double kZipfExponent = 0.99;
// Requests the closed-loop client keeps in flight: eight full batches, so
// both workers find a full batch waiting whenever they finish one.
constexpr int kClosedDepth = 256;
constexpr int kWarmupRequests = 2000;
// Open-loop arrival rate, fixed: about a third of the closed-loop throughput
// this benchmark measured when it was written (NOTES.md). Never derived from
// a live measurement, so a faster server sees the same offered load.
constexpr double kOpenLoopRate = 8000.0;
constexpr unsigned kCheckedReplyOneIn = 64;  // share of replies re-computed

constexpr int kSetupReps = 5;        // set-up runs per process; run.py takes the median
constexpr int kWarmupSteps = 2;      // untimed steps before each timed loop
constexpr int kDecomposedCheckSteps = 3;
constexpr std::size_t kMinSamples = 10;
constexpr double kCycleSeconds = 2.0;
// Trace events per recording thread. Serving clients run on one thread,
// which records about 400k events in a traced 30 s run; 2^20 leaves room for
// a server twice as fast before a drop fails the run.
constexpr std::size_t kTraceBufferEvents = std::size_t(1) << 20;

// Output-check tolerance for paths that may round differently (fused vs
// unfused kernels, 1.5D partial sums vs single node), in the golden and
// differential tests' abs+rel form. Those tests run in double at 1e-8..1e-9,
// which is below one float ulp; 1e-6 is about eight float epsilons.
constexpr double kFloatTol = 1e-6;

// ---- small utilities -------------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration seconds_dur(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Insertion-ordered JSON object; values are rendered as they are added.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + json_escape(key) + "\":" + json;
    return *this;
  }
  JsonObject& number(const std::string& key, double v) { return raw(key, num(v)); }
  JsonObject& text(const std::string& key, const std::string& v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  JsonObject& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& numbers(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ",";
      s += num(v[i]);
    }
    return raw(key, s + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

// Everything one run measures; run.py derives the metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  JsonObject setup;     // set-up timings per repetition
  JsonObject samples;   // per-operation time samples
  JsonObject counters;  // scalar measurements

  void check(std::string name, bool ok, std::string detail) {
    ++attempted;
    if (!ok) ++failed;
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

// Runs `op` once; an exception counts as a failed operation.
template <typename F>
bool attempt(Result& res, F&& op) {
  ++res.attempted;
  try {
    op();
    return true;
  } catch (const std::exception& e) {
    ++res.failed;
    std::fprintf(stderr, "wallbench: operation failed: %s\n", e.what());
    return false;
  }
}

// Calls `op` back to back for `budget_s` seconds, appending the wall time of
// each successful call to `out` (and going on past the budget until `out`
// holds kMinSamples, unless a call fails).
template <typename F>
void timed_loop(Result& res, double budget_s, F&& op, std::vector<double>& out) {
  const std::uint64_t failed_before = res.failed;
  const auto deadline = Clock::now() + seconds_dur(budget_s);
  while (Clock::now() < deadline ||
         (out.size() < kMinSamples && res.failed == failed_before)) {
    const auto t0 = Clock::now();
    const bool ok = attempt(res, op);
    const auto t1 = Clock::now();
    if (ok) out.push_back(ms_between(t0, t1));
  }
}

// Like timed_loop, and also records how many samples this slice added, so
// run.py can compute the throughput of each cycle.
template <typename F>
void counted_loop(Result& res, double budget_s, F&& op, std::vector<double>& out,
                  std::vector<double>& slice_sizes) {
  const std::size_t before = out.size();
  timed_loop(res, budget_s, op, out);
  slice_sizes.push_back(static_cast<double>(out.size() - before));
}

// One slice of a measurement cycle: its share of the cycle, and what runs
// in it given its budget in seconds.
struct Slice {
  double share;
  std::function<void(double)> run;
};

// Runs the measured part of a workload as cycles of about kCycleSeconds,
// each giving every slice its share, in order. Interleaving spreads every
// metric over the whole run, so a slow spell of the host lands on all of
// them alike instead of on whichever phase it happened to overlap.
void interleave(double seconds, const std::vector<Slice>& slices) {
  const int cycles = std::max(1, static_cast<int>(std::lround(seconds / kCycleSeconds)));
  for (int c = 0; c < cycles; ++c) {
    for (const Slice& s : slices) s.run(s.share * seconds / cycles);
  }
}

bool same_bits(real_t a, real_t b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

// Abs+rel deviation in the golden and differential tests' form:
// |a - b| / (1 + max(|a|, |b|)); NaN is infinitely far from everything.
double scaled_diff(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return INFINITY;
  return std::abs(a - b) / (1.0 + std::max(std::abs(a), std::abs(b)));
}

double max_scaled_diff(const DenseMatrix<real_t>& a, const DenseMatrix<real_t>& b) {
  if (!a.same_shape(b)) return INFINITY;
  double worst = 0.0;
  for (index_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, scaled_diff(a.data()[i], b.data()[i]));
  }
  return worst;
}

std::string loaded_libgomp() {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    const auto pos = line.find('/');
    if (pos != std::string::npos && line.find("libgomp", pos) != std::string::npos) {
      return line.substr(pos);
    }
  }
  return "none";
}

// Peak resident memory so far. Read right after the measured phases, so the
// harness's own serialisation of samples does not count.
void record_peak_rss(Result& res) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  res.counters.number("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);  // KiB
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return serve::mix64(seed ^ serve::mix64(salt));
}

// ---- inputs ----------------------------------------------------------------

struct BuiltGraph {
  graph::Graph<real_t> g;
  double generate_s = 0;
  double build_s = 0;
};

BuiltGraph make_graph(const GraphSpec& spec, std::uint64_t seed) {
  const double n = std::ldexp(1.0, spec.scale);
  graph::KroneckerParams params;
  params.scale = spec.scale;
  params.edges = static_cast<index_t>(spec.density * n * n);
  params.seed = mix(seed, 1);
  BuiltGraph out;
  const auto t0 = Clock::now();
  const graph::EdgeList el = graph::generate_kronecker(params);
  const auto t1 = Clock::now();
  graph::BuildOptions opt;
  opt.add_self_loops = spec.self_loops;
  out.g = graph::build_graph<real_t>(el, opt);
  const auto t2 = Clock::now();
  out.generate_s = s_between(t0, t1);
  out.build_s = s_between(t1, t2);
  return out;
}

DenseMatrix<real_t> make_features(index_t n, index_t k, std::uint64_t seed) {
  DenseMatrix<real_t> x(n, k);
  Rng rng(mix(seed, 2));
  x.fill_uniform(rng, -1.0, 1.0);
  return x;
}

std::vector<index_t> make_labels(index_t n, index_t classes, std::uint64_t seed) {
  std::vector<index_t> labels(static_cast<std::size_t>(n));
  Rng rng(mix(seed, 3));
  for (auto& l : labels) {
    l = static_cast<index_t>(rng.next_bounded(static_cast<std::uint64_t>(classes)));
  }
  return labels;
}

GnnConfig gat_config(index_t in, std::vector<index_t> widths, std::uint64_t seed) {
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = in;
  cfg.layer_widths = std::move(widths);
  cfg.seed = mix(seed, 4);
  return cfg;
}

GnnConfig train_config(std::uint64_t seed) {
  return gat_config(kTrainWidth,
                    std::vector<index_t>(kTrainLayers, kTrainWidth), seed);
}

// ---- tracing ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out = "wallbench-trace.json";
};

// Prepares an empty trace; recording starts with the first traced() slice.
void trace_begin() {
  obs::Tracer::instance().set_buffer_capacity(kTraceBufferEvents);
  obs::Tracer::instance().clear();
}

// Stops recording, writes the Chrome/Perfetto JSON, records the drop count.
void trace_end(const Args& args, Result& res) {
  obs::Tracer::set_enabled(false);
  const bool written = obs::Tracer::instance().write_chrome_json_file(args.trace_out);
  res.check("trace_written", written, args.trace_out);
  res.counters.number("dropped_events",
                      static_cast<double>(obs::Tracer::instance().dropped_events()));
}

// Wraps a slice so that the tracer records only while it runs.
std::function<void(double)> traced(std::function<void(double)> slice) {
  return [slice = std::move(slice)](double budget_s) {
    obs::Tracer::set_enabled(true);
    slice(budget_s);
    obs::Tracer::set_enabled(false);
  };
}

using Span = obs::SpanScope;
constexpr auto kBenchSpan = obs::SpanCategory::kPhase;

// ---- train-gat -------------------------------------------------------------

// Trainer::step's sequence as separate public calls, each under a bench
// span, so the traced run can split a step into forward / loss / backward /
// optimizer. Same calls, same order, so the loss trajectory is bitwise that
// of Trainer::step.
class DecomposedTrainer {
 public:
  explicit DecomposedTrainer(const GnnConfig& cfg) : model_(cfg), opt_(kLearningRate) {}

  real_t step(const CsrMatrix<real_t>& adj, const CsrMatrix<real_t>& adj_t,
              const DenseMatrix<real_t>& x, std::span<const index_t> labels) {
    const Span step_span("bench.step", kBenchSpan);
    {
      const Span s("bench.forward", kBenchSpan);
      model_.forward(adj, x, caches_, ws_, h_);
    }
    {
      const Span s("bench.loss", kBenchSpan);
      softmax_cross_entropy(h_, labels, loss_);
    }
    {
      const Span s("bench.backward", kBenchSpan);
      model_.backward(adj, adj_t, caches_, loss_.grad, ws_, grads_);
    }
    {
      const Span s("bench.optimizer", kBenchSpan);
      model_.apply_gradients(grads_, opt_);
    }
    return loss_.value;
  }

  void infer(const CsrMatrix<real_t>& adj, const DenseMatrix<real_t>& x) {
    const Span s("bench.infer", kBenchSpan);
    model_.infer(adj, x, ws_, h_infer_);
  }

 private:
  GnnModel<real_t> model_;
  SgdOptimizer<real_t> opt_;
  Workspace<real_t> ws_;
  std::vector<LayerCache<real_t>> caches_;
  std::vector<LayerGrads<real_t>> grads_;
  DenseMatrix<real_t> h_;
  DenseMatrix<real_t> h_infer_;
  LossResult<real_t> loss_;
};

void check_trajectory(Result& res, const char* name, const std::vector<real_t>& got,
                      const std::vector<real_t>& want) {
  const std::size_t n = std::min(got.size(), want.size());
  std::size_t first_diff = n;
  for (std::size_t i = 0; i < n && first_diff == n; ++i) {
    if (!same_bits(got[i], want[i])) first_diff = i;
  }
  std::ostringstream detail;
  detail << n << " steps compared";
  if (first_diff < n) {
    detail << "; step " << first_diff << ": " << got[first_diff] << " vs "
           << want[first_diff];
  }
  res.check(name, n > 0 && first_diff == n, detail.str());
}

void run_train_gat(const Args& args, Result& res) {
  const GnnConfig cfg = train_config(args.seed);

  // Set-up: graph generation, graph build with its transpose, model and
  // trainer construction. Repeated; the last repetition is the one measured.
  BuiltGraph bg;
  CsrMatrix<real_t> adj_t;
  std::unique_ptr<GnnModel<real_t>> model;
  std::unique_ptr<Trainer<real_t>> trainer;
  std::vector<double> setup_s, gen_s, build_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    trainer.reset();
    model.reset();
    const auto t0 = Clock::now();
    bg = make_graph(kTrainGraph, args.seed);
    adj_t = bg.g.adj.transposed();
    model = std::make_unique<GnnModel<real_t>>(cfg);
    trainer = std::make_unique<Trainer<real_t>>(
        *model, std::make_unique<SgdOptimizer<real_t>>(kLearningRate));
    setup_s.push_back(s_between(t0, Clock::now()));
    gen_s.push_back(bg.generate_s);
    build_s.push_back(bg.build_s);
  }
  res.setup.numbers("setup_s", setup_s).numbers("generate_s", gen_s).numbers("build_s", build_s);
  const CsrMatrix<real_t>& adj = bg.g.adj;
  const index_t n = adj.rows();
  res.counters.number("nnz", static_cast<double>(adj.nnz()));
  res.counters.number("vertices", static_cast<double>(n));

  const DenseMatrix<real_t> x = make_features(n, kTrainWidth, args.seed);
  const std::vector<index_t> labels = make_labels(n, kTrainWidth, args.seed);

  std::vector<real_t> losses;  // Trainer::step trajectory from step 0
  auto trainer_step = [&] { losses.push_back(trainer->step(adj, adj_t, x, labels).loss); };
  Workspace<real_t> ws;
  DenseMatrix<real_t> h_infer;
  auto infer = [&] { model->infer(adj, x, ws, h_infer); };
  for (int i = 0; i < kWarmupSteps; ++i) attempt(res, trainer_step);
  attempt(res, infer);

  // The decomposed calls must reproduce the Trainer's trajectory bitwise.
  // Untraced runs check a short prefix; the traced run checks every step of
  // its traced slices, which start from the same initial parameters.
  DecomposedTrainer decomposed(cfg);
  std::vector<real_t> decomposed_losses;
  auto decomposed_step = [&] {
    decomposed_losses.push_back(decomposed.step(adj, adj_t, x, labels));
  };

  const std::uint64_t misses_before = trainer->workspace_stats().pool_misses;
  std::vector<double> step_ms, step_slices, infer_ms, traced_step_ms, traced_infer_ms;
  if (!args.trace) {
    interleave(args.seconds,
               {{0.7, [&](double b) { counted_loop(res, b, trainer_step, step_ms, step_slices); }},
                {0.3, [&](double b) { timed_loop(res, b, infer, infer_ms); }}});
  } else {
    for (int i = 0; i < kWarmupSteps; ++i) attempt(res, decomposed_step);
    trace_begin();
    interleave(args.seconds,
               {{0.25, [&](double b) { counted_loop(res, b, trainer_step, step_ms, step_slices); }},
                {0.1, [&](double b) { timed_loop(res, b, infer, infer_ms); }},
                {0.45, traced([&](double b) {
                   timed_loop(res, b, decomposed_step, traced_step_ms);
                 })},
                {0.2, traced([&](double b) {
                   timed_loop(res, b, [&] { decomposed.infer(adj, x); }, traced_infer_ms);
                 })}});
    trace_end(args, res);
  }
  record_peak_rss(res);
  res.samples.numbers("step_ms", step_ms).numbers("step_slices", step_slices);
  res.samples.numbers("infer_ms", infer_ms);
  if (args.trace) {
    res.samples.numbers("traced_step_ms", traced_step_ms);
    res.samples.numbers("traced_infer_ms", traced_infer_ms);
  }
  res.counters.number(
      "ws_misses_per_step",
      static_cast<double>(trainer->workspace_stats().pool_misses - misses_before) /
          static_cast<double>(std::max<std::size_t>(step_ms.size(), 1)));

  // Inference (fused path, no Psi) against the training-mode forward
  // (unfused, cached intermediates) on the same parameters: each cycle
  // ends the Trainer's model on an inference pass.
  {
    std::vector<LayerCache<real_t>> caches;
    DenseMatrix<real_t> h_fwd;
    if (attempt(res, [&] { h_fwd = model->forward(adj, x, caches); })) {
      const double d = max_scaled_diff(h_infer, h_fwd);
      res.check("infer_matches_forward", d <= kFloatTol,
                "max abs+rel deviation " + num(d) + ", tolerance " + num(kFloatTol));
    }
  }

  if (!args.trace) {
    for (int i = 0; i < kDecomposedCheckSteps; ++i) attempt(res, decomposed_step);
  }
  // Extend the reference trajectory so every decomposed step is compared.
  while (losses.size() < decomposed_losses.size() && res.failed == 0) {
    attempt(res, trainer_step);
  }
  check_trajectory(res, "decomposed_matches_trainer", decomposed_losses, losses);
}

// ---- dist-gat-p4 -----------------------------------------------------------

// What the rank threads record over the slices of one kind of operation.
struct DistPhase {
  std::vector<double> wall_ms;  // rank 0, barrier to barrier
  std::vector<double> slice_sizes;  // operations per slice, rank 0
  std::vector<std::vector<double>> cpu_ms =
      std::vector<std::vector<double>>(kDistRanks);  // [rank][op], thread CPU
  std::vector<double> wait_ms = std::vector<double>(kDistRanks, 0.0);  // per rank, summed
  std::vector<comm::VolumeSnapshot> volume =
      std::vector<comm::VolumeSnapshot>(kDistRanks);  // per rank, summed over slices
};

// One slice on every rank: `op` runs one operation at a time between two
// barriers until rank 0 sees the budget spent; rank 0 decides and the
// barrier publishes the decision.
template <typename F>
void dist_slice(comm::Communicator& world, DistPhase& out, std::atomic<bool>& stop,
                double budget_s, const char* span, F&& op) {
  const auto r = static_cast<std::size_t>(world.rank());
  const std::size_t before = out.wall_ms.size();
  comm::reset_all_stats(world);
  const auto deadline = Clock::now() + seconds_dur(budget_s);
  for (;;) {
    world.barrier();
    const auto t0 = Clock::now();
    const std::uint64_t cpu0 = comm::thread_cpu_ns();
    const std::uint64_t wait0 = world.stats().wait_ns.load(std::memory_order_relaxed);
    {
      const Span s(span, kBenchSpan);
      op();
    }
    out.cpu_ms[r].push_back(static_cast<double>(comm::thread_cpu_ns() - cpu0) * 1e-6);
    out.wait_ms[r] +=
        static_cast<double>(world.stats().wait_ns.load(std::memory_order_relaxed) - wait0) * 1e-6;
    if (r == 0 && Clock::now() >= deadline && out.wall_ms.size() + 1 >= kMinSamples) {
      stop.store(true, std::memory_order_relaxed);
    }
    world.barrier();
    if (r == 0) out.wall_ms.push_back(ms_between(t0, Clock::now()));
    if (stop.load(std::memory_order_relaxed)) break;
  }
  if (r == 0) out.slice_sizes.push_back(static_cast<double>(out.wall_ms.size() - before));
  world.barrier();
  const comm::VolumeSnapshot v = comm::snapshot_quiesced(world.stats());
  comm::VolumeSnapshot& acc = out.volume[r];
  acc.bytes_sent += v.bytes_sent;
  acc.messages += v.messages;
  acc.supersteps += v.supersteps;
  acc.compute_seconds += v.compute_seconds;
  world.barrier();
  if (r == 0) stop.store(false, std::memory_order_relaxed);
  world.barrier();
}

std::string volume_json(const DistPhase& p) {
  JsonObject o;
  std::vector<double> bytes, msgs, steps, compute_s;
  for (const auto& v : p.volume) {
    bytes.push_back(static_cast<double>(v.bytes_sent));
    msgs.push_back(static_cast<double>(v.messages));
    steps.push_back(static_cast<double>(v.supersteps));
    compute_s.push_back(v.compute_seconds);
  }
  const comm::CostModel model;  // the repo's default alpha-beta interconnect
  double comm_s = 0;
  for (const auto& v : p.volume) comm_s = std::max(comm_s, model.comm_time(v));
  o.numbers("bytes", bytes).numbers("messages", msgs).numbers("supersteps", steps);
  o.numbers("compute_s", compute_s).numbers("wait_ms", p.wait_ms);
  o.number("modeled_comm_s", comm_s);
  o.number("steps", static_cast<double>(p.wall_ms.size()));
  // Per step, the slowest rank's thread CPU time.
  std::vector<double> max_cpu(p.wall_ms.size(), 0.0);
  for (const auto& rank_cpu : p.cpu_ms) {
    for (std::size_t s = 0; s < max_cpu.size() && s < rank_cpu.size(); ++s) {
      max_cpu[s] = std::max(max_cpu[s], rank_cpu[s]);
    }
  }
  o.numbers("max_rank_cpu_ms", max_cpu);
  return o.str();
}

// SpmdRuntime::run rethrows a rank's CommError once every rank has joined,
// but ends the process on any other exception. Recasting a rank's failure as
// a rank abort lets its peers unwind and the caller count the failure.
template <typename Body>
auto failing_as_rank_abort(Body body) {
  return [body](comm::Communicator& world) {
    try {
      body(world);
    } catch (const comm::CommError&) {
      throw;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wallbench: rank %d failed: %s\n", world.rank(), e.what());
      throw comm::CommError(comm::FaultKind::kRankAbort, world.rank(), 0, "wallbench rank");
    }
  };
}

void run_dist_gat(const Args& args, Result& res) {
  const GnnConfig cfg = train_config(args.seed);
  std::vector<double> setup_s, gen_s, build_s, engine_s;
  std::vector<real_t> trajectory;  // rank 0's losses, every step in order
  DistPhase steps, traced_steps, infers;
  const index_t n = index_t(1) << kTrainGraph.scale;
  const DenseMatrix<real_t> x = make_features(n, kTrainWidth, args.seed);
  const std::vector<index_t> labels = make_labels(n, kTrainWidth, args.seed);
  BuiltGraph bg;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool measured = rep + 1 == kSetupReps;
    const auto t0 = Clock::now();
    bg = make_graph(kTrainGraph, args.seed);
    const auto t_graph = Clock::now();
    Clock::time_point constructed;
    std::atomic<bool> stop{false};
    // A rank's failure ends the whole SPMD run and is rethrown here; it
    // counts as a failed operation and ends the workload.
    const bool ran = attempt(res, [&] {
      comm::SpmdRuntime::run(kDistRanks, failing_as_rank_abort([&](comm::Communicator& world) {
        GnnModel<real_t> model(cfg);
        auto engine = dist::make_dist_engine(dist::DistPolicy::k1_5D, world, bg.g.adj, model);
        world.barrier();
        if (world.rank() == 0) constructed = Clock::now();
        if (!measured) return;

        SgdOptimizer<real_t> opt(kLearningRate);
        auto train_step = [&] {
          const real_t loss = engine->train_step(x, labels, opt).loss;
          if (world.rank() == 0) trajectory.push_back(loss);
        };
        auto infer = [&] { (void)engine->infer(x); };
        for (int i = 0; i < kWarmupSteps; ++i) train_step();
        infer();
        auto slice = [&](DistPhase& phase, const char* span, auto& op) {
          return [&, span](double b) { dist_slice(world, phase, stop, b, span, op); };
        };
        if (!args.trace) {
          interleave(args.seconds, {{0.8, slice(steps, "bench.dist_step", train_step)},
                                    {0.2, slice(infers, "bench.dist_infer", infer)}});
        } else {
          if (world.rank() == 0) trace_begin();
          auto traced_slice = [&](double b) {
            world.barrier();
            if (world.rank() == 0) obs::Tracer::set_enabled(true);
            world.barrier();
            dist_slice(world, traced_steps, stop, b, "bench.dist_step", train_step);
            if (world.rank() == 0) obs::Tracer::set_enabled(false);
          };
          interleave(args.seconds, {{0.5, slice(steps, "bench.dist_step", train_step)},
                                    {0.5, traced_slice}});
          world.barrier();
          if (world.rank() == 0) trace_end(args, res);
        }
      }));
    });
    if (!ran) break;
    setup_s.push_back(s_between(t0, constructed));
    gen_s.push_back(bg.generate_s);
    build_s.push_back(bg.build_s);
    engine_s.push_back(s_between(t_graph, constructed));
  }
  record_peak_rss(res);
  res.attempted += kWarmupSteps + 1 + steps.wall_ms.size() + traced_steps.wall_ms.size() +
                   infers.wall_ms.size();
  res.setup.numbers("setup_s", setup_s).numbers("generate_s", gen_s);
  res.setup.numbers("build_s", build_s).numbers("engine_s", engine_s);
  res.counters.number("nnz", static_cast<double>(bg.g.adj.nnz()));
  res.counters.number("vertices", static_cast<double>(bg.g.num_vertices()));
  res.samples.numbers("step_ms", steps.wall_ms).numbers("step_slices", steps.slice_sizes);
  res.counters.raw("volume", volume_json(steps));
  if (args.trace) {
    res.samples.numbers("traced_step_ms", traced_steps.wall_ms);
  } else {
    res.samples.numbers("infer_ms", infers.wall_ms);
  }

  // The 1.5D trajectory against a single-node Trainer from the same seed.
  const std::size_t k = std::min<std::size_t>(trajectory.size(), kWarmupSteps + 2);
  GnnModel<real_t> ref_model(cfg);
  Trainer<real_t> ref(ref_model, std::make_unique<SgdOptimizer<real_t>>(kLearningRate));
  const CsrMatrix<real_t> adj_t = bg.g.adj.transposed();
  bool ok = k > 0;
  double worst = 0;
  for (std::size_t i = 0; i < k && ok; ++i) {
    real_t want = 0;
    ok = attempt(res, [&] { want = ref.step(bg.g.adj, adj_t, x, labels).loss; });
    worst = std::max(worst, scaled_diff(trajectory[i], want));
  }
  res.check("dist_matches_single_node", ok && worst <= kFloatTol,
            std::to_string(k) + " steps compared, max abs+rel deviation " + num(worst) +
                ", tolerance " + num(kFloatTol));
}

// ---- serve-zipf ------------------------------------------------------------

using Server = serve::InferenceServer<real_t>;
using Reply = serve::InferenceReply<real_t>;

obs::Histogram& hist(const char* name) {
  return obs::MetricsRegistry::global().histogram(name);
}

constexpr const char* kStageHists[] = {"serve.batch.ns", "serve.sample.ns",
                                       "serve.gather.ns", "serve.forward.ns",
                                       "serve.reply.ns"};

void reset_serve_hists() {
  for (const char* h : kStageHists) hist(h).reset();
  hist("serve.batch.size").reset();
  hist("serve.request.ns").reset();
}

std::string serve_hists_json() {
  JsonObject o;
  for (const char* h : kStageHists) {
    o.raw(h, JsonObject()
                 .number("count", static_cast<double>(hist(h).count()))
                 .number("mean_ns", hist(h).count() ? hist(h).mean() : 0.0)
                 .str());
  }
  o.number("batch_size_p50", static_cast<double>(hist("serve.batch.size").p50()));
  o.number("batches", static_cast<double>(hist("serve.batch.size").count()));
  return o.str();
}

// Per slice: replies received before the budget ran out, and the time taken.
struct ClosedLoop {
  std::vector<double> completed;
  std::vector<double> elapsed_s;
};

// Saturating closed loop: one client, the calling thread, keeps
// kClosedDepth requests in flight and submits the next only when its oldest
// completes.
void closed_loop(Server& server, const serve::ZipfSampler& zipf, std::uint64_t seed,
                 double budget_s, Result& res, ClosedLoop& out) {
  Rng rng(seed);
  std::uint64_t completed = 0;
  std::deque<std::future<Reply>> inflight;
  const auto start = Clock::now();
  const auto deadline = start + seconds_dur(budget_s);
  for (int i = 0; i < kClosedDepth; ++i) inflight.push_back(server.submit(zipf.sample(rng)));
  bool open = true;
  while (!inflight.empty()) {
    const Reply r = inflight.front().get();
    inflight.pop_front();
    ++res.attempted;
    if (r.status != serve::ReplyStatus::kOk) ++res.failed;
    if (open && Clock::now() >= deadline) {
      open = false;
      out.elapsed_s.push_back(s_between(start, Clock::now()));
    }
    if (!open) continue;  // drain what is in flight
    ++completed;
    inflight.push_back(server.submit(zipf.sample(rng)));
  }
  out.completed.push_back(static_cast<double>(completed));
}

// What the open loop records per request, appended slice after slice (times
// relative to each slice's start); run.py derives latency from the due time
// as (sent - due) + service.
struct OpenLoop {
  std::vector<double> due_ms, sent_ms, service_ms;
  std::vector<Reply> checked;  // seeded sample of replies, re-computed later
};

// Open loop: the calling thread submits on a fixed seeded Poisson schedule
// at kOpenLoopRate whether or not earlier requests completed; one collector
// thread waits for the replies in submission order. Client work stays on
// the calling thread so a traced run records it into one trace buffer.
void open_loop(Server& server, const serve::ZipfSampler& zipf, std::uint64_t seed,
               double budget_s, Result& res, OpenLoop& out) {
  const auto count = static_cast<std::size_t>(kOpenLoopRate * budget_s);
  std::vector<double> due_ms(count), sent_ms(count), service_ms(count);
  std::vector<index_t> vertices(count);
  std::vector<char> keep(count);
  Rng rng(seed);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.next_double()) / kOpenLoopRate * 1e3;
    due_ms[i] = t;
    vertices[i] = zipf.sample(rng);
    keep[i] = rng.next_bounded(kCheckedReplyOneIn) == 0;
  }

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<Reply>> pending;  // guarded by mu
  std::uint64_t failed = 0;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::thread collector([&] {
    for (std::size_t i = 0; i < count; ++i) {
      std::future<Reply> f;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !pending.empty(); });
        f = std::move(pending.front());
        pending.pop_front();
      }
      Reply r = f.get();
      if (r.status != serve::ReplyStatus::kOk) {
        ++failed;
        service_ms[i] = INFINITY;  // a failed request misses every limit
        continue;
      }
      service_ms[i] = static_cast<double>(r.latency_ns) * 1e-6;
      if (keep[i]) out.checked.push_back(std::move(r));
    }
  });
  for (std::size_t i = 0; i < count; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(due_ms[i])));
    sent_ms[i] = ms_between(start, Clock::now());
    std::future<Reply> f = server.submit(vertices[i]);
    {
      const std::lock_guard<std::mutex> lk(mu);
      pending.push_back(std::move(f));
    }
    cv.notify_one();
  }
  collector.join();
  res.attempted += count;
  res.failed += failed;
  out.due_ms.insert(out.due_ms.end(), due_ms.begin(), due_ms.end());
  out.sent_ms.insert(out.sent_ms.end(), sent_ms.begin(), sent_ms.end());
  out.service_ms.insert(out.service_ms.end(), service_ms.begin(), service_ms.end());
}

void record_open_loop(Result& res, const std::string& prefix, const OpenLoop& ol) {
  res.samples.numbers(prefix + "due_ms", ol.due_ms);
  res.samples.numbers(prefix + "sent_ms", ol.sent_ms);
  res.samples.numbers(prefix + "service_ms", ol.service_ms);
}

void run_serve_zipf(const Args& args, Result& res) {
  const GnnConfig cfg = gat_config(kServeFeatures, {kServeFeatures, kServeOutput}, args.seed);
  serve::ServeConfig sc;
  sc.num_threads = kServeWorkers;
  sc.fanout = kServeFanout;
  sc.sample_seed = mix(args.seed, 5);
  sc.cache_capacity = kServeCacheRows;

  const DenseMatrix<real_t> x =
      make_features(index_t(1) << kServeGraph.scale, kServeFeatures, args.seed);
  BuiltGraph bg;
  std::unique_ptr<GnnModel<real_t>> model;
  std::unique_ptr<Server> server;
  std::vector<double> setup_s, gen_s, build_s, server_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    model.reset();
    const auto t0 = Clock::now();
    bg = make_graph(kServeGraph, args.seed);
    const auto t1 = Clock::now();
    model = std::make_unique<GnnModel<real_t>>(cfg);
    server = std::make_unique<Server>(*model, bg.g.adj, x, sc);
    const auto t2 = Clock::now();
    setup_s.push_back(s_between(t0, t2));
    gen_s.push_back(bg.generate_s);
    build_s.push_back(bg.build_s);
    server_s.push_back(s_between(t1, t2));
  }
  res.setup.numbers("setup_s", setup_s).numbers("generate_s", gen_s);
  res.setup.numbers("build_s", build_s).numbers("server_s", server_s);
  const CsrMatrix<real_t>& adj = bg.g.adj;
  res.counters.number("nnz", static_cast<double>(adj.nnz()));
  res.counters.number("vertices", static_cast<double>(adj.rows()));
  const serve::ZipfSampler zipf(adj.rows(), kZipfExponent, mix(args.seed, 6));

  // Warm-up: fills the vertex cache and every worker's workspace pool.
  {
    const auto t0 = Clock::now();
    std::vector<std::future<Reply>> warm;
    Rng rng(mix(args.seed, 7));
    for (int i = 0; i < kWarmupRequests; ++i) warm.push_back(server->submit(zipf.sample(rng)));
    for (auto& f : warm) {
      ++res.attempted;
      if (f.get().status != serve::ReplyStatus::kOk) ++res.failed;
    }
    res.counters.number("warmup_s", s_between(t0, Clock::now()));
  }
  reset_serve_hists();
  const auto cache_before = server->cache().stats();

  // Every slice draws its own requests and its own popular vertices: a
  // fresh seed per slice. The few most popular vertices take a large share of
  // the queries (the top ten about a quarter), and their neighbourhoods
  // differ in size by up to a hundredfold, so one popular set per run would
  // make the run's cost depend on its seed more than on the server.
  std::uint64_t slice_seed = mix(args.seed, 8);
  auto next_seed = [&] { return slice_seed = serve::mix64(slice_seed); };
  auto slice_zipf = [&](std::uint64_t s) {
    return serve::ZipfSampler(adj.rows(), kZipfExponent, mix(s, 6));
  };
  ClosedLoop closed;
  OpenLoop measured, traced_open;
  auto closed_slice = [&](double b) {
    const std::uint64_t s = next_seed();
    closed_loop(*server, slice_zipf(s), s, b, res, closed);
  };
  auto open_slice = [&](OpenLoop& out) {
    return [&](double b) {
      const std::uint64_t s = next_seed();
      open_loop(*server, slice_zipf(s), s, b, res, out);
    };
  };
  Workspace<real_t> infer_ws;
  DenseMatrix<real_t> h;
  auto infer = [&] { model->infer(adj, x, infer_ws, h); };
  std::vector<double> infer_ms;
  if (!args.trace) {
    // Offline full-graph inference with the serving model, between loops.
    attempt(res, infer);
    interleave(args.seconds,
               {{0.35, closed_slice},
                {0.5, open_slice(measured)},
                {0.15, [&](double b) { timed_loop(res, b, infer, infer_ms); }}});
  } else {
    // Untraced open loop for the tracing-overhead comparison; traced closed
    // and open loops for the per-layer metrics.
    trace_begin();
    interleave(args.seconds, {{0.5, open_slice(measured)},
                              {0.15, traced(closed_slice)},
                              {0.35, traced(open_slice(traced_open))}});
  }
  record_peak_rss(res);
  if (args.trace) {
    record_open_loop(res, "traced_open_", traced_open);
  } else {
    res.samples.numbers("infer_ms", infer_ms);
  }
  record_open_loop(res, "open_", measured);
  res.samples.numbers("closed_completed", closed.completed);
  res.samples.numbers("closed_elapsed_s", closed.elapsed_s);
  server->stop(/*drain=*/true);
  if (args.trace) trace_end(args, res);
  res.counters.raw("stages", serve_hists_json());
  const auto cache_after = server->cache().stats();
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double misses = static_cast<double>(cache_after.misses - cache_before.misses);
  res.counters.number("cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0);

  // A seeded sample of replies must equal the sequential path bitwise.
  Workspace<real_t> ws;
  std::size_t mismatches = 0;
  for (const Reply& r : measured.checked) {
    std::vector<real_t> want;
    if (!attempt(res, [&] {
          want = serve::serve_sequential(*model, adj, x, server->sampler(), r.vertex,
                                         r.sample_seed, ws);
        })) {
      ++mismatches;
      continue;
    }
    bool same = want.size() == r.output.size();
    for (std::size_t i = 0; same && i < want.size(); ++i) same = same_bits(want[i], r.output[i]);
    if (!same) ++mismatches;
  }
  res.check("replies_match_sequential", !measured.checked.empty() && mismatches == 0,
            std::to_string(measured.checked.size()) + " replies compared, " +
                std::to_string(mismatches) + " differ");
}

// ---- main ------------------------------------------------------------------

std::string context_json() {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(v ? v : "unset");
  };
  JsonObject o;
  o.number("nproc", static_cast<double>(std::thread::hardware_concurrency()));
#if defined(_OPENMP)
  o.number("omp_max_threads", omp_get_max_threads());
#endif
  o.text("OMP_NUM_THREADS", env("OMP_NUM_THREADS"));
  o.text("OMP_WAIT_POLICY", env("OMP_WAIT_POLICY"));
  o.text("libgomp", loaded_libgomp());
  o.text("compiler", WALLBENCH_COMPILER);
  o.text("build_type", WALLBENCH_BUILD_TYPE);
  return o.str();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "wallbench_harness: %s\nusage: wallbench_harness --workload "
               "train-gat|dist-gat-p4|serve-zipf --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               why);
  return 2;
}

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") args.seconds = std::atof(v.c_str());
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--trace-out") args.trace_out = v;
    else return usage(("unknown argument " + k).c_str());
  }
  if (!(args.seconds > 0)) return usage("--seconds must be positive");
  // A leaked knob must not pass for a gain: measure the program's defaults.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "AGNN_", 5) == 0) {
      return usage(("refusing to run with " + std::string(*e) + " set").c_str());
    }
  }

  Result res;
  if (args.workload == "train-gat") run_train_gat(args, res);
  else if (args.workload == "dist-gat-p4") run_dist_gat(args, res);
  else if (args.workload == "serve-zipf") run_serve_zipf(args, res);
  else return usage("unknown workload");

  std::string checks = "[";
  for (std::size_t i = 0; i < res.checks.size(); ++i) {
    if (i) checks += ",";
    checks += JsonObject()
                  .text("name", res.checks[i].name)
                  .flag("ok", res.checks[i].ok)
                  .text("detail", res.checks[i].detail)
                  .str();
  }
  checks += "]";
  JsonObject out;
  out.text("workload", args.workload).number("seed", static_cast<double>(args.seed));
  out.flag("trace", args.trace).number("seconds", args.seconds);
  out.raw("context", context_json());
  out.number("attempted", static_cast<double>(res.attempted));
  out.number("failed", static_cast<double>(res.failed));
  out.raw("checks", checks);
  out.raw("setup", res.setup.str());
  out.raw("samples", res.samples.str());
  out.raw("counters", res.counters.str());
  if (args.trace) out.text("trace_file", args.trace_out);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace wb

int main(int argc, char** argv) { return wb::main(argc, argv); }
