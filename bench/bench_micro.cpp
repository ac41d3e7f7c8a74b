// Per-phase kernel microbenchmarks: the cost of one edge-phase stream, one
// node-phase fold, and one sharded α-schedule fill, measured in isolation
// under real shard contexts at shard-threads 1 and 8. Not a paper artifact —
// this is the engineering view of the round kernels the steal runner
// chunks: BENCH_micro.json carries `micro-kernels-s1` / `micro-kernels-s8`
// twin rows, so bench/check_regression.py gates both the absolute kernel
// cost and its parallel efficiency exactly like the grid benches.
//
// Each kernel runs through the `sharded_stepper` protocol (edge_phase /
// node_phase), so the measurement includes the chunked claim loop, the
// cache-locality edge layout, and the completion barrier — the real
// per-round overheads, not an idealized loop. The s1 instance steps
// sequentially (no context), the s8 instance on an 8-thread pool with the
// work-stealing runner; after timing, the two instances' output buffers are
// compared bit-for-bit, so the bench doubles as a large-n determinism
// smoke; the s1 α-fill buffers are also checked against the schedules'
// plain alphas() path.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/runtime/experiment_grid.hpp"
#include "dlb/runtime/result_sink.hpp"
#include "dlb/runtime/thread_pool.hpp"

namespace {

using namespace dlb;

constexpr std::uint64_t kMasterSeed = 7;
constexpr node_id kTorusSide = 512;  // n = 262144, m = 524288
constexpr int kRounds = 30;          // timed rounds per kernel

/// A stepper that exposes the three round kernels in isolation. The state
/// mirrors what linear_process touches per round: loads x, per-edge α, a
/// per-edge flow buffer, and an α fill buffer.
class kernel_bench final : public sharded_stepper {
 public:
  kernel_bench(std::shared_ptr<const graph> g, std::vector<real_t> alpha)
      : g_(std::move(g)),
        alpha_(std::move(alpha)),
        x_(static_cast<std::size_t>(g_->num_nodes()), 10.0),
        flow_(static_cast<std::size_t>(g_->num_edges()), 0.0),
        alpha_buf_(static_cast<std::size_t>(g_->num_edges()), 0.0) {
    // A deterministic non-uniform load so the stream kernel moves real data.
    for (std::size_t i = 0; i < x_.size(); ++i) {
      x_[i] += static_cast<real_t>(i % 17);
    }
  }

  /// Edge-phase stream: flow[e] = α[e]·(x_u − x_v). One linear read of x
  /// through the adjacency, one linear write of flow — the memory shape of
  /// every flow computation in the repo.
  void edge_stream_round() {
    edge_phase([&](const edge_slice& es) {
      es.for_each([&](edge_id e) {
        const edge& ed = g_->endpoints(e);
        flow_[static_cast<std::size_t>(e)] =
            alpha_[static_cast<std::size_t>(e)] *
            (x_[static_cast<std::size_t>(ed.u)] -
             x_[static_cast<std::size_t>(ed.v)]);
      });
    });
  }

  /// Node-phase fold: x[i] += Σ signed flow over incident edges, visited in
  /// ascending edge-id order — the apply phase of every process.
  void node_fold_round() {
    node_phase([&](node_id i0, node_id i1) {
      for (node_id i = i0; i < i1; ++i) {
        real_t delta = 0;
        for (const incidence& inc : g_->neighbors(i)) {
          const real_t f = flow_[static_cast<std::size_t>(inc.edge)];
          delta += g_->endpoints(inc.edge).u == i ? -f : f;
        }
        x_[static_cast<std::size_t>(i)] += delta * 1e-3;
      }
    });
  }

  /// Sharded α-schedule fill: begin_round + per-slice fill_alphas through
  /// edge_phase — the exact path linear/local-rounding steppers take for
  /// time-varying schedules.
  void alpha_fill_round(const alpha_schedule& schedule, round_t t) {
    schedule.begin_round(t);
    edge_phase([&](const edge_slice& es) {
      schedule.fill_alphas(t, alpha_buf_.data(), es);
    });
  }

  [[nodiscard]] const std::vector<real_t>& flows() const { return flow_; }
  [[nodiscard]] const std::vector<real_t>& loads() const { return x_; }
  [[nodiscard]] const std::vector<real_t>& alpha_fill() const {
    return alpha_buf_;
  }

  void real_load_extrema(node_id, node_id, real_t&, real_t&) const override {}

 protected:
  [[nodiscard]] const graph& shard_topology() const override { return *g_; }

 private:
  std::shared_ptr<const graph> g_;
  std::vector<real_t> alpha_;
  std::vector<real_t> x_;
  std::vector<real_t> flow_;
  std::vector<real_t> alpha_buf_;
};

/// The production wiring in miniature: a real pool, work-stealing runner.
std::shared_ptr<const shard_context> steal_context(const graph& g,
                                                   std::size_t shards) {
  auto pool =
      std::make_shared<runtime::thread_pool>(static_cast<unsigned>(shards));
  return std::make_shared<const shard_context>(shard_context{
      shard_plan(g, shards),
      [pool](std::size_t count,
             const std::function<void(std::size_t)>& body) {
        pool->parallel_for_each(count, body);
      },
      shard_exec::work_stealing,
      [pool](std::size_t groups, std::size_t chunks,
             const std::function<void(std::size_t,
                                      const std::function<std::size_t()>&)>&
                 body) { pool->steal_loop(groups, chunks, body); }});
}

std::int64_t time_rounds(const std::function<void(int)>& round) {
  round(-1);  // warmup: touch every page, build any lazy state
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < kRounds; ++t) round(t);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
      .count();
}

struct kernel_row {
  std::uint64_t cell;
  std::string name;
  std::function<void(kernel_bench&, int)> run;
  const alpha_schedule* filled = nullptr;  // the α-fill kernels' schedule
};

}  // namespace

int main() {
  const auto g = std::make_shared<const graph>(
      generators::torus_2d(kTorusSide));
  const speed_vector speeds = uniform_speeds(g->num_nodes());
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  const auto matchings = to_matchings(*g, misra_gries_edge_coloring(*g));
  const periodic_matching_schedule periodic(*g, speeds, matchings);
  const random_matching_schedule random(*g, speeds, kMasterSeed);

  const std::vector<kernel_row> kernels = {
      {0, "edge-stream", [](kernel_bench& k, int) { k.edge_stream_round(); }},
      {1, "node-fold", [](kernel_bench& k, int) { k.node_fold_round(); }},
      {2, "alpha-fill-periodic",
       [&](kernel_bench& k, int t) {
         k.alpha_fill_round(periodic, t < 0 ? 0 : t);
       },
       &periodic},
      {3, "alpha-fill-random",
       [&](kernel_bench& k, int t) {
         k.alpha_fill_round(random, t < 0 ? 0 : t);
       },
       &random},
  };

  std::vector<runtime::result_row> rows;
  std::vector<std::unique_ptr<kernel_bench>> witnesses;  // s1 state, per kernel

  for (const unsigned shards : {1u, 8u}) {
    const std::string grid = "micro-kernels-s" + std::to_string(shards);
    std::cout << "=== " << grid << " (torus_2d(" << kTorusSide
              << "), n=" << g->num_nodes() << ", m=" << g->num_edges()
              << ", " << kRounds << " rounds/kernel) ===\n";
    for (const kernel_row& kernel : kernels) {
      auto bench = std::make_unique<kernel_bench>(g, alpha);
      if (shards > 1) {
        bench->enable_sharded_stepping(steal_context(*g, shards));
      }
      auto& k = *bench;
      const std::int64_t wall =
          time_rounds([&](int t) { kernel.run(k, t); });

      // The s1 instance is the reference; the sharded twin must reproduce
      // its buffers bit-for-bit (same rounds, same inputs). The s1 α fill
      // itself must equal the schedule's plain alphas() for the last round.
      if (shards == 1) {
        if (kernel.filled != nullptr) {
          std::vector<real_t> want;
          kernel.filled->alphas(kRounds - 1, want);
          if (k.alpha_fill() != want) {
            std::cerr << "FATAL: kernel '" << kernel.name
                      << "' at s1 diverged from the schedule's alphas()\n";
            return 1;
          }
        }
        witnesses.push_back(std::move(bench));
      } else {
        const kernel_bench& ref = *witnesses[kernel.cell];
        if (k.flows() != ref.flows() || k.loads() != ref.loads() ||
            k.alpha_fill() != ref.alpha_fill()) {
          std::cerr << "FATAL: kernel '" << kernel.name << "' at s" << shards
                    << " diverged from the sequential reference\n";
          return 1;
        }
      }

      runtime::result_row row;
      row.cell = kernel.cell;
      row.grid = grid;
      row.scenario = "torus_2d(" + std::to_string(kTorusSide) + ")";
      row.process = kernel.name;
      row.model = "kernel";
      row.n = g->num_nodes();
      row.seed = kMasterSeed;
      row.rounds = kRounds;
      row.wall_ns = wall;
      std::printf("  %-22s %10.3f ms  (%7.2f ns/item/round)\n",
                  kernel.name.c_str(), static_cast<double>(wall) / 1e6,
                  static_cast<double>(wall) /
                      static_cast<double>(kRounds) /
                      static_cast<double>(g->num_edges()));
      rows.push_back(std::move(row));
    }
  }

  runtime::print_scaling_efficiency(rows, std::cout);

  const std::string path = "BENCH_micro.json";
  std::ofstream out(path);
  runtime::write_json(out, rows, runtime::timing::include);
  std::cout << "\nwrote " << rows.size() << " cells to " << path << "\n";
  std::cerr << "BENCH " << path << ": " << rows.size() << " cells\n";
  return 0;
}
