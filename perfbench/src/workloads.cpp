#include "workloads.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include <sys/resource.h>

#include "dlb/common/rng.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/coloring.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/graph/matching.hpp"
#include "dlb/graph/spectral.hpp"
#include "dlb/obs/recorder.hpp"
#include "dlb/runtime/experiment_grid.hpp"
#include "dlb/runtime/grids.hpp"
#include "dlb/runtime/result_sink.hpp"
#include "dlb/runtime/thread_pool.hpp"
#include "dlb/workload/competitors.hpp"

namespace perfbench {

using dlb::graph;
using dlb::node_id;
using dlb::real_t;
using dlb::round_t;
using dlb::weight_t;
using dlb::runtime::grid_cell;
using dlb::runtime::grid_spec;
using dlb::runtime::result_row;

namespace {

constexpr double ns_per_ms = 1e6;
constexpr double ns_per_s = 1e9;

// Seed stream for graph randomness, apart from the grids' cell streams.
constexpr std::uint64_t graph_stream = 0x7065726667ULL;

// ------------------------------------------------------------ cell audit

/// What the benchmark learns about one cell from outside the library: the
/// token accounting of its process and, when tracing, the spans of the calls
/// the engine made into it.
struct cell_audit {
  std::string process;
  weight_t initial = 0;   ///< Σ tokens handed to the competitor's build
  weight_t injected = 0;  ///< Σ inject_tokens counts (arrivals)
  weight_t drained = 0;   ///< Σ tokens drain_tokens removed
  weight_t final_sum = 0;  ///< Σ real loads when the process was destroyed
  weight_t final_min = 0;  ///< min real load at that point
  std::string check_error;  ///< set when reading the final loads threw
  std::int64_t build_start_ns = 0;
  std::int64_t build_ns = 0;
  std::int64_t end_start_ns = 0;  ///< destructor entry (after the engine call)
  std::int64_t check_ns = 0;      ///< the final-load scan's own cost
  std::int64_t inject_ns = 0;     ///< traced only
  std::vector<std::int64_t> step_start_ns;  ///< traced only
  std::vector<std::int64_t> step_ns;        ///< traced only
};

/// Cuts the process CPU time (cpu_ns) of a pass into consecutive segments,
/// each one engine time, set-up, or the benchmark's own bookkeeping. The
/// gated figures come from it. Every pass of a run makes the same calls in
/// the same order, so the k-th timed segment is the same work in every pass:
/// a round of a cell, or a run of rounds on a small graph.
///
/// Only one thread may mark, so it is off (every mark a no-op) when cells
/// run on more than one thread. Shard threads do not mark; their CPU time
/// lands in the segment running on the cell's thread.
class cpu_timeline {
 public:
  enum class kind { setup, timed, own };

  explicit cpu_timeline(bool on) : on_(on) {}

  /// Ends the running segment and starts one of kind `k`.
  void mark(kind k) {
    if (!on_) return;
    const std::int64_t t = cpu_ns();
    if (started_) {
      const double s = static_cast<double>(t - last_) / 1e9;
      if (kind_ == kind::timed) timed_s.push_back(s);
      if (kind_ == kind::setup) setup_s.push_back(s);
    }
    started_ = true;
    last_ = t;
    kind_ = k;
  }

  std::vector<double> timed_s;  ///< engine time, in pass order
  std::vector<double> setup_s;  ///< everything else the workload does

 private:
  const bool on_;
  bool started_ = false;
  std::int64_t last_ = 0;
  kind kind_ = kind::own;
};

/// Audits of finished cells, keyed by (grid, cell seed). Cells of one grid
/// have distinct seeds (derive_seed(master, index)).
class audit_log {
 public:
  audit_log(bool traced, bool timeline) : traced_(traced), timeline_(timeline) {}

  [[nodiscard]] bool traced() const { return traced_; }
  [[nodiscard]] cpu_timeline& timeline() { return timeline_; }

  void put(const std::string& grid, std::uint64_t seed, cell_audit a) {
    const std::lock_guard<std::mutex> lock(mutex_);
    cells_[{grid, seed}] = std::move(a);
  }

  [[nodiscard]] std::optional<cell_audit> take(const std::string& grid,
                                               std::uint64_t seed) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cells_.find({grid, seed});
    if (it == cells_.end()) return std::nullopt;
    cell_audit a = std::move(it->second);
    cells_.erase(it);
    return a;
  }

 private:
  const bool traced_;
  cpu_timeline timeline_;
  std::mutex mutex_;  // guards cells_
  std::map<std::pair<std::string, std::uint64_t>, cell_audit> cells_;
};

/// Forwarding wrapper around a competitor's process. It lets the benchmark
/// check every cell's final loads and time the engine's calls into the
/// process without touching the library: run_cell builds it through the
/// competitor's build function, so the grid runs unchanged around it.
///
/// It forwards the interfaces run_cell and the engine look for: the
/// discrete_process calls, and the sharding protocol (installing a shard
/// context or an obs probe on the wrapper installs it on the wrapped
/// process). A capability interface the engine gains later must be
/// forwarded here too, or the benchmark stops exercising it.
class checked_process final : public dlb::discrete_process,
                              public dlb::sharded_stepper {
 public:
  checked_process(std::unique_ptr<dlb::discrete_process> inner,
                  cell_audit audit, audit_log& log, std::string grid,
                  std::uint64_t seed)
      : inner_(std::move(inner)),
        inner_shardable_(dynamic_cast<const dlb::shardable*>(inner_.get())),
        audit_(std::move(audit)),
        log_(log),
        grid_(std::move(grid)),
        seed_(seed),
        // A stamp (a process CPU clock read, about 0.4 us) costs as much as
        // a round on a few nodes, so rounds of small graphs are timed in
        // runs of at least 1024 node-rounds (a few hundred microseconds);
        // graphs of 1024 nodes or more, round by round.
        steps_per_segment_(std::max<node_id>(
            1, 1024 / std::max<node_id>(inner_->topology().num_nodes(), 1))) {}

  checked_process(const checked_process&) = delete;
  checked_process& operator=(const checked_process&) = delete;

  ~checked_process() override {
    log_.timeline().mark(cpu_timeline::kind::own);
    audit_.end_start_ns = now_ns();
    try {
      const std::vector<weight_t> real = inner_->real_loads();
      weight_t sum = 0;
      weight_t lo = real.empty() ? 0 : real.front();
      for (const weight_t w : real) {
        sum += w;
        lo = std::min(lo, w);
      }
      audit_.final_sum = sum;
      audit_.final_min = lo;
    } catch (const std::exception& e) {
      audit_.check_error = e.what();
    }
    audit_.check_ns = now_ns() - audit_.end_start_ns;
    log_.timeline().mark(cpu_timeline::kind::setup);
    try {
      log_.put(grid_, seed_, std::move(audit_));
    } catch (...) {
      // Out of memory while storing: the cell then reads as unaudited,
      // which the harness counts as a failed cell.
    }
  }

  void step() override {
    if (steps_ % steps_per_segment_ == 0) engine_call();
    ++steps_;
    if (!log_.traced()) {
      inner_->step();
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_->step();
    audit_.step_start_ns.push_back(t0);
    audit_.step_ns.push_back(now_ns() - t0);
  }

  [[nodiscard]] const std::vector<weight_t>& loads() const override {
    first_engine_call();
    return inner_->loads();
  }
  [[nodiscard]] std::vector<weight_t> real_loads() const override {
    first_engine_call();
    return inner_->real_loads();
  }
  [[nodiscard]] const graph& topology() const override {
    return inner_->topology();
  }
  [[nodiscard]] const dlb::speed_vector& speeds() const override {
    return inner_->speeds();
  }
  [[nodiscard]] round_t rounds_executed() const override {
    return inner_->rounds_executed();
  }
  [[nodiscard]] weight_t dummy_created() const override {
    return inner_->dummy_created();
  }
  void inject_tokens(node_id i, weight_t count) override {
    first_engine_call();
    const std::int64_t t0 = log_.traced() ? now_ns() : 0;
    inner_->inject_tokens(i, count);
    audit_.injected += count;
    if (log_.traced()) audit_.inject_ns += now_ns() - t0;
  }
  weight_t drain_tokens(node_id i, weight_t count) override {
    first_engine_call();
    const weight_t removed = inner_->drain_tokens(i, count);
    audit_.drained += removed;
    return removed;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void real_load_extrema(node_id begin, node_id end, real_t& lo,
                         real_t& hi) const override {
    first_engine_call();
    if (inner_shardable_ != nullptr) {
      inner_shardable_->real_load_extrema(begin, end, lo, hi);
    } else {
      dlb::per_speed_extrema(inner_->real_loads(), inner_->speeds(), begin,
                             end, lo, hi);
    }
  }

 protected:
  [[nodiscard]] const graph& shard_topology() const override {
    return inner_->topology();
  }
  void on_sharding_enabled(
      const std::shared_ptr<const dlb::shard_context>& ctx) override {
    dlb::try_enable_sharding(*inner_, ctx);
  }
  void on_probe_attached(const dlb::obs::probe& pb) override {
    dlb::try_attach_probe(*inner_, pb);
  }

 private:
  /// Starts a timed segment on the CPU timeline.
  void engine_call() const {
    engine_called_ = true;
    log_.timeline().mark(cpu_timeline::kind::timed);
  }
  /// The engine's first call into the process (loads, steps, tokens; cell
  /// set-up makes none of these) ends the cell's set-up.
  void first_engine_call() const {
    if (!engine_called_) engine_call();
  }

  std::unique_ptr<dlb::discrete_process> inner_;
  const dlb::shardable* inner_shardable_;  // null when inner steps serially
  cell_audit audit_;
  audit_log& log_;
  std::string grid_;
  std::uint64_t seed_;
  const node_id steps_per_segment_;
  std::uint64_t steps_ = 0;
  mutable bool engine_called_ = false;
};

/// Routes every competitor of `spec` through checked_process.
void instrument(grid_spec& spec, audit_log& log) {
  for (dlb::workload::competitor& comp : spec.processes) {
    comp.build = [build = comp.build, &log, grid = spec.name,
                  name = comp.name](
                     std::shared_ptr<const graph> g,
                     const dlb::speed_vector& s,
                     const std::vector<weight_t>& tokens,
                     dlb::workload::model m, std::uint64_t seed)
        -> std::unique_ptr<dlb::discrete_process> {
      cell_audit a;
      a.process = name;
      for (const weight_t w : tokens) a.initial += w;
      a.build_start_ns = now_ns();
      auto inner = build(std::move(g), s, tokens, m, seed);
      a.build_ns = now_ns() - a.build_start_ns;
      return std::make_unique<checked_process>(std::move(inner), std::move(a),
                                               log, grid, seed);
    };
  }
}

// ------------------------------------------------------------ workloads

/// Size knobs of the workloads. The defaults are the benchmark; the
/// determinism self-test shrinks them.
struct sizing {
  node_id side = 256;  ///< torus side; the ring gets side² nodes
  node_id expander_n = 1 << 14;  ///< static-matching's random 4-regular graph
  round_t sparse_rounds = 100;
};

/// One pass's grids, with the time spent generating their graphs.
struct pass_specs {
  std::vector<grid_spec> specs;
  std::int64_t graph_ns = 0;
};

dlb::workload::graph_case timed_case(std::string name, std::string family,
                                     const std::function<graph()>& make,
                                     std::int64_t& graph_ns) {
  const std::int64_t t0 = now_ns();
  auto g = std::make_shared<const graph>(make());
  graph_ns += now_ns() - t0;
  return {std::move(name), std::move(family), std::move(g)};
}

/// Ring and torus with side² nodes each.
std::vector<dlb::workload::graph_case> stream_graphs(const sizing& z,
                                                     std::int64_t& graph_ns) {
  const node_id n = z.side * z.side;
  const node_id side = z.side;
  return {timed_case("ring(n=" + std::to_string(n) + ")", "ring",
                     [n] { return dlb::generators::cycle(n); }, graph_ns),
          timed_case("torus(" + std::to_string(side) + "x" +
                         std::to_string(side) + ")",
                     "torus",
                     [side] { return dlb::generators::torus_2d(side); },
                     graph_ns)};
}

grid_spec stream_spec(std::string name) {
  grid_spec spec;
  spec.name = std::move(name);
  spec.kind = dlb::runtime::grid_kind::dynamic_arrivals;
  spec.view = dlb::runtime::table_view::mean_discrepancy;
  spec.comm_model = dlb::workload::model::diffusion;
  spec.arrivals = dlb::runtime::arrival_pattern::uniform;
  spec.arrivals_per_round = 1000;
  spec.repeats = 1;
  return spec;
}

pass_specs stream_sparse(std::uint64_t, const sizing& z) {
  pass_specs p;
  grid_spec spec = stream_spec("stream-sparse");
  spec.graphs = stream_graphs(z, p.graph_ns);
  spec.spike_per_node = 2;
  spec.dynamic_rounds = z.sparse_rounds;
  spec.processes = dlb::workload::competitor_subset(
      true, {"round-down", "Alg1", "Alg2"});
  p.specs.push_back(std::move(spec));
  return p;
}

pass_specs stream_tokens(std::uint64_t, const sizing& z) {
  pass_specs p;
  grid_spec spec = stream_spec("stream-tokens");
  spec.graphs = stream_graphs(z, p.graph_ns);
  spec.spike_per_node = 50;
  // random-walk spends its first 50 rounds in the coarse round-down phase;
  // the last 10 are walker rounds, its per-token cost.
  spec.dynamic_rounds = 60;
  spec.processes =
      dlb::workload::competitor_subset(true, {"Alg1", "excess-tokens"});
  // The random-walk baseline [19] is registered with the huge-uniform grid,
  // not the standard set; take it from there so its configuration is the
  // library's, not a copy.
  dlb::runtime::grid_options tiny;
  tiny.target_n = 16;
  for (const auto& comp :
       dlb::runtime::make_named_grid("huge-uniform", tiny, 0).processes) {
    if (comp.name.starts_with("random-walk")) spec.processes.push_back(comp);
  }
  p.specs.push_back(std::move(spec));
  return p;
}

pass_specs static_matching(std::uint64_t seed, const sizing& z) {
  pass_specs p;
  grid_spec spec;
  spec.name = "static-matching";
  spec.kind = dlb::runtime::grid_kind::static_balancing;
  spec.view = dlb::runtime::table_view::discrepancy;
  spec.comm_model = dlb::workload::model::random_matching;
  spec.repeats = 1;
  const node_id n = z.expander_n;
  const std::uint64_t gseed = dlb::derive_seed(seed, graph_stream);
  spec.graphs.push_back(timed_case(
      "random-4-regular(n=" + std::to_string(n) + ")", "expander",
      [n, gseed] { return dlb::generators::random_regular(n, 4, gseed); },
      p.graph_ns));
  spec.processes = dlb::workload::competitor_subset(
      false, {"round-down", "Alg1", "Alg2"});
  p.specs.push_back(std::move(spec));
  return p;
}

pass_specs paper_grids(std::uint64_t seed, const sizing&) {
  pass_specs p;
  // Pinned rather than taken from grid_options' defaults, so a change to
  // those defaults does not silently change the workload.
  dlb::runtime::grid_options opts;
  opts.target_n = 128;
  opts.repeats = 5;
  for (const char* name : {"table1", "table2-periodic", "table2-random"}) {
    // Building a named grid is generating its graphs.
    const std::int64_t t0 = now_ns();
    p.specs.push_back(dlb::runtime::make_named_grid(name, opts, seed));
    p.graph_ns += now_ns() - t0;
  }
  return p;
}

/// Threads a pass runs with.
struct layout {
  unsigned cell_threads = 1;  ///< run_grid's cell pool (grid workloads)
  unsigned shards = 1;        ///< shard threads stepping each cell
};

struct workload_def {
  const char* name;
  pass_specs (*make)(std::uint64_t seed, const sizing& z);
  bool via_grid;  ///< cells run through run_grid, else run_cell one at a time
  layout gated;   ///< the end-to-end passes
  /// The twin pass a traced run adds: the same cells with 4 shard or cell
  /// threads where the gated passes use 1, or the reverse, for the metrics
  /// of the parallel runtime. Zero threads = no twin.
  layout twin;
};

const std::vector<workload_def>& workloads() {
  static const std::vector<workload_def> defs = {
      {"stream-sparse", stream_sparse, false, {1, 4}, {1, 1}},
      {"stream-tokens", stream_tokens, false, {1, 1}, {0, 0}},
      {"static-matching", static_matching, false, {1, 1}, {1, 4}},
      {"paper-grids", paper_grids, true, {1, 1}, {4, 1}},
  };
  return defs;
}

const workload_def& find_workload(const std::string& name) {
  for (const workload_def& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

// ------------------------------------------------------------ checks

/// Per-cell output checks. None compares against recorded bytes, so a
/// deliberate RNG change moves no cell into failure.
std::vector<std::string> check_cell(const grid_spec& spec,
                                    const grid_cell& cell,
                                    const result_row& row,
                                    const std::optional<cell_audit>& a,
                                    std::vector<std::string>& notes) {
  std::vector<std::string> bad;
  if (!a.has_value()) {
    bad.push_back("process never audited");
    return bad;
  }
  if (!a->check_error.empty()) bad.push_back("final loads: " + a->check_error);
  if (a->final_sum != a->initial + a->injected - a->drained) {
    bad.push_back("load not conserved: " + std::to_string(a->final_sum) +
                  " != " + std::to_string(a->initial) + " + " +
                  std::to_string(a->injected) + " - " +
                  std::to_string(a->drained));
  }
  // The random-walk baseline [19] may push a load negative by design (too
  // many negative walkers meeting on one node; see random_walk_balancer.hpp
  // and the source paper's discussion of [19]), so only its conservation is
  // checked.
  if (a->final_min < 0 && !row.process.starts_with("random-walk")) {
    bad.push_back("negative load " + std::to_string(a->final_min));
  }
  if (spec.kind == dlb::runtime::grid_kind::static_balancing) {
    // Alg1's 2d+2 ceiling (Theorem 3(2), given the spike workload's d·w_max
    // floor) holds for every additive terminating process, so every static
    // Alg1 cell is held to it.
    const graph& g = *spec.graphs[cell.graph_index].g;
    const real_t d = static_cast<real_t>(g.max_degree());
    const real_t n = static_cast<real_t>(g.num_nodes());
    if (row.process.starts_with("Alg1") && !(row.final_max_min <= 2 * d + 2)) {
      bad.push_back("max-min " + std::to_string(row.final_max_min) +
                    " above Theorem 3's 2d+2 = " + std::to_string(2 * d + 2));
    }
    // Alg2's d/4 + sqrt(d ln n) is Theorem 8's w.h.p. d/4 + O(sqrt(d log n))
    // with the hidden constant set to 1, as annotate_degree_bounds states
    // it. The theorem does not promise that constant, and n=128 cells
    // exceed it on some seeds, so an excess is reported, not failed.
    const real_t alg2 = d / 4 + std::sqrt(d * std::log(n));
    if (row.process.starts_with("Alg2") && !(row.final_max_min <= alg2)) {
      notes.push_back(spec.name + " cell " + std::to_string(cell.index) +
                      " (" + row.process + " @ " + row.scenario +
                      "): max-min " + std::to_string(row.final_max_min) +
                      " above d/4+sqrt(d ln n) = " + std::to_string(alg2));
    }
  }
  return bad;
}

// ------------------------------------------------------------ passes

/// Everything one pass of a workload measured.
struct pass_stats {
  double setup_s = 0;  ///< Σ setup_parts_s
  /// Set-up in pass order: graph generation, the cell pool (if any), then
  /// each timed unit's cells' set-up.
  std::vector<double> setup_parts_s;
  double wall_s = 0;   ///< Σ unit_wall_s
  /// Timed units in pass order: each cell's engine call (one cell at a
  /// time) or each grid's run_grid (a cell pool).
  std::vector<double> unit_wall_s;
  /// The pass's CPU timeline (cpu_timeline; empty when it is off): the
  /// gated figures.
  std::vector<double> timed_cpu_s;
  std::vector<double> setup_cpu_s;
  double node_rounds = 0;
  double graph_ms = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;
  std::vector<std::string> rows;  ///< masked rows, for the cross-pass check
  std::vector<char> row_failed;   ///< per row: the cell already failed

  // Traced passes only.
  std::map<std::string, std::vector<double>> step_ms;  ///< per competitor
  std::vector<double> round_ms;
  std::vector<double> cell_setup_ms;
  std::vector<double> cell_ms;
  double build_ms = 0;
  double core_ms = 0;
  double baselines_ms = 0;
  double engine_ms = 0;
  double unattributed_ms = 0;
  double engine_call_ms = 0;  ///< Σ row.wall_ns of audited cells
  double probe_ns = 0;
  double probe_rounds = 0;
  double phases = 0;
  double discrete_rounds = 0;
  double barrier_ns = 0;
  double phase_ns = 0;
  double busy_cell_ms = 0;
  unsigned cell_threads = 1;
};

/// Metric key of a competitor: "Alg1 (this paper)" → "alg1",
/// "round-down [37]" → "round_down".
std::string competitor_key(const std::string& name) {
  std::string key;
  for (const char c : name) {
    if (c == ' ' || c == '(' || c == '[') break;
    key += c == '-' ? '_' : static_cast<char>(std::tolower(c));
  }
  return key;
}

bool in_core(const std::string& process) {
  return process.starts_with("Alg1") || process.starts_with("Alg2");
}

/// Folds one finished cell into the pass: checks, times, and (traced) the
/// spans its checked process recorded. `setup_ns` is the cell's set-up
/// time outside the engine call.
void account_cell(const grid_spec& spec, const grid_cell& cell,
                  const result_row& row, const std::optional<cell_audit>& a,
                  double setup_ns, pass_stats& ps) {
  ps.attempted += 1;
  const std::vector<std::string> bad = check_cell(spec, cell, row, a, ps.notes);
  if (!bad.empty()) {
    ps.failed += 1;
    for (const std::string& b : bad) {
      ps.failures.push_back(spec.name + " cell " + std::to_string(cell.index) +
                            " (" + row.process + " @ " + row.scenario +
                            "): " + b);
    }
  }
  ps.rows.push_back(dlb::runtime::to_json(row, dlb::runtime::timing::exclude));
  ps.row_failed.push_back(bad.empty() ? 0 : 1);
  ps.setup_s += setup_ns / ns_per_s;
  ps.node_rounds += static_cast<double>(row.n) * static_cast<double>(row.rounds);
  if (!a.has_value()) return;

  ps.cell_setup_ms.push_back(setup_ns / ns_per_ms);
  ps.build_ms += static_cast<double>(a->build_ns) / ns_per_ms;
  ps.discrete_rounds += static_cast<double>(row.rounds);
  double covered_ns = static_cast<double>(a->inject_ns);
  std::vector<double>& steps = ps.step_ms[competitor_key(row.process)];
  for (std::size_t i = 0; i < a->step_ns.size(); ++i) {
    steps.push_back(static_cast<double>(a->step_ns[i]) / ns_per_ms);
    covered_ns += static_cast<double>(a->step_ns[i]);
    if (i > 0) {
      ps.round_ms.push_back(
          static_cast<double>(a->step_start_ns[i] - a->step_start_ns[i - 1]) /
          ns_per_ms);
    }
  }
  (in_core(row.process) ? ps.core_ms : ps.baselines_ms) +=
      covered_ns / ns_per_ms;
  ps.unattributed_ms +=
      (static_cast<double>(row.wall_ns) - covered_ns) / ns_per_ms;
  ps.engine_call_ms += static_cast<double>(row.wall_ns) / ns_per_ms;
  ps.cell_ms.push_back(
      static_cast<double>(a->end_start_ns + a->check_ns - a->build_start_ns) /
      ns_per_ms);
  ps.busy_cell_ms += ps.cell_ms.back();
}

/// A cell that produced no row: it threw, or its grid did.
void account_lost_cell(const std::string& what, pass_stats& ps) {
  ps.attempted += 1;
  ps.failed += 1;
  ps.failures.push_back(what);
  ps.rows.emplace_back("no row");
  ps.row_failed.push_back(1);
}

/// Reads the library's own obs spans of a traced pass: T^A probe rounds,
/// phase work and barrier wait, phase counts.
void account_recorder(const dlb::obs::recorder& rec, pass_stats& ps) {
  for (const dlb::obs::span_record& s : rec.events()) {
    const std::string_view name = s.name;
    const auto dur = static_cast<double>(s.dur_ns);
    if (name == "tA_round" || name == "tA_check") {
      ps.probe_ns += dur;
      if (name == "tA_round") ps.probe_rounds += 1;
    } else if (name.starts_with("barrier:")) {
      ps.barrier_ns += dur;
    } else if (name == "edge_phase" || name == "node_phase" ||
               name == "node_phase_reduce") {
      // Sharded phases emit one span per shard or claim group; sequential
      // ones a single shard-0 span. Only the former carry barrier waits.
      if (s.shard >= 0) ps.phase_ns += dur;
    }
  }
  for (const dlb::obs::cell_record& c : rec.cells()) {
    ps.phases += static_cast<double>(c.snapshot.counter("phases"));
  }
  // The probe's continuous rounds run inside the engine call; they are the
  // engine's, not a competitor's.
  ps.engine_ms = ps.probe_ns / ns_per_ms;
  ps.unattributed_ms -= ps.engine_ms;
}

pass_stats run_pass(const workload_def& w, std::uint64_t seed,
                    const sizing& z, layout threads, dlb::obs::recorder* rec) {
  pass_stats ps;
  ps.cell_threads = threads.cell_threads;
  audit_log log(rec != nullptr,
                /*timeline=*/rec == nullptr && threads.cell_threads == 1);
  cpu_timeline& timeline = log.timeline();
  timeline.mark(cpu_timeline::kind::setup);
  pass_specs p = w.make(seed, z);
  ps.graph_ms = static_cast<double>(p.graph_ns) / ns_per_ms;
  ps.setup_s += static_cast<double>(p.graph_ns) / ns_per_s;
  ps.setup_parts_s.push_back(ps.setup_s);
  for (grid_spec& spec : p.specs) {
    instrument(spec, log);
    spec.shard_threads = threads.shards;
    spec.recorder = rec;
  }

  if (!w.via_grid) {
    for (const grid_spec& spec : p.specs) {
      for (const grid_cell& cell : dlb::runtime::expand_grid(spec, seed)) {
        timeline.mark(cpu_timeline::kind::setup);
        const std::int64_t t0 = now_ns();
        result_row row;
        try {
          row = dlb::runtime::run_cell(spec, cell);
        } catch (const std::exception& e) {
          timeline.mark(cpu_timeline::kind::own);
          account_lost_cell(spec.name + " cell " + std::to_string(cell.index) +
                                " threw: " + e.what(),
                            ps);
          (void)log.take(spec.name, cell.seed);
          continue;
        }
        const std::int64_t elapsed = now_ns() - t0;
        timeline.mark(cpu_timeline::kind::own);
        const std::optional<cell_audit> a = log.take(spec.name, cell.seed);
        const double check = a.has_value() ? static_cast<double>(a->check_ns)
                                           : 0.0;
        ps.unit_wall_s.push_back(static_cast<double>(row.wall_ns) / ns_per_s);
        ps.wall_s += ps.unit_wall_s.back();
        const double before = ps.setup_s;
        account_cell(spec, cell, row, a,
                     static_cast<double>(elapsed - row.wall_ns) - check, ps);
        ps.setup_parts_s.push_back(ps.setup_s - before);
      }
    }
  } else {
    const std::int64_t t0 = now_ns();
    dlb::runtime::thread_pool pool(threads.cell_threads);
    ps.setup_parts_s.push_back(static_cast<double>(now_ns() - t0) / ns_per_s);
    ps.setup_s += ps.setup_parts_s.back();
    for (const grid_spec& spec : p.specs) {
      const std::vector<grid_cell> cells = dlb::runtime::expand_grid(spec, seed);
      timeline.mark(cpu_timeline::kind::setup);
      const std::int64_t g0 = now_ns();
      std::vector<result_row> rows;
      try {
        rows = dlb::runtime::run_grid(spec, seed, pool);
      } catch (const std::exception& e) {
        timeline.mark(cpu_timeline::kind::own);
        for (const grid_cell& cell : cells) {
          account_lost_cell(spec.name + " cell " + std::to_string(cell.index) +
                                ": grid threw: " + e.what(),
                            ps);
        }
        continue;
      }
      ps.unit_wall_s.push_back(static_cast<double>(now_ns() - g0) / ns_per_s);
      timeline.mark(cpu_timeline::kind::own);
      ps.wall_s += ps.unit_wall_s.back();
      const double before = ps.setup_s;
      for (const result_row& row : rows) {
        const grid_cell& cell = cells.at(row.cell);
        const std::optional<cell_audit> a = log.take(spec.name, row.seed);
        // Set-up inside the grid: from the competitor's build to the end of
        // the engine call, less the engine call.
        const double setup =
            a.has_value() ? static_cast<double>(a->end_start_ns -
                                                a->build_start_ns -
                                                row.wall_ns)
                          : 0.0;
        account_cell(spec, cell, row, a, setup, ps);
      }
      ps.setup_parts_s.push_back(ps.setup_s - before);
      for (std::size_t k = rows.size(); k < cells.size(); ++k) {
        account_lost_cell(spec.name + ": run_grid returned " +
                              std::to_string(rows.size()) + " rows for " +
                              std::to_string(cells.size()) + " cells",
                          ps);
      }
    }
  }
  if (rec != nullptr) account_recorder(*rec, ps);
  timeline.mark(cpu_timeline::kind::own);
  ps.timed_cpu_s = std::move(timeline.timed_s);
  ps.setup_cpu_s = std::move(timeline.setup_s);
  return ps;
}

// ------------------------------------------------------------ layer probes

/// A shard pool plus context, built the way run_cell builds its own.
struct shard_rig {
  std::unique_ptr<dlb::runtime::thread_pool> pool;
  std::shared_ptr<const dlb::shard_context> ctx;
};

shard_rig make_rig(const graph& g, unsigned threads) {
  shard_rig rig;
  if (threads <= 1) return rig;
  rig.pool = std::make_unique<dlb::runtime::thread_pool>(threads);
  dlb::runtime::thread_pool* pool = rig.pool.get();
  rig.ctx = std::make_shared<const dlb::shard_context>(dlb::shard_context{
      dlb::shard_plan(g, threads),
      [pool](std::size_t count,
             const std::function<void(std::size_t)>& body) {
        pool->parallel_for_each(count, body);
      },
      dlb::shard_exec::work_stealing,
      [pool](std::size_t groups, std::size_t chunks,
             const std::function<void(std::size_t,
                                      const std::function<std::size_t()>&)>&
                 body) { pool->steal_loop(groups, chunks, body); }});
  return rig;
}

template <typename Fn>
double time_ms(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) / ns_per_ms;
}

/// Bytes one linear_process step touches, counted from its data layout (not
/// measured): per edge the α, endpoints, both endpoint loads and speeds,
/// previous and next flows and the cumulative flow; per incidence the
/// adjacency entry and the flow it folds; per node the load and speed;
/// plus the α rewrite of models whose matrix changes every round.
double computed_step_bytes(const graph& g, bool alpha_per_round) {
  const double m = static_cast<double>(g.num_edges());
  const double n = static_cast<double>(g.num_nodes());
  const double per_edge = 8 + 8 + 16 + 16 + 16 + 16 + 16;
  const double per_incidence = 8 + 16;
  const double per_node = 16 + 8;
  return m * per_edge + 2 * m * per_incidence + n * per_node +
         (alpha_per_round ? 8 * m : 0);
}

std::vector<real_t> spike_reals(const graph& g, weight_t spike) {
  const std::vector<weight_t> tokens = dlb::workload::spike_workload(
      g, dlb::uniform_speeds(g.num_nodes()), spike);
  return {tokens.begin(), tokens.end()};
}

/// Graphs of the pass's grids that run model `m`.
std::vector<std::shared_ptr<const graph>> graphs_of(const pass_specs& p,
                                                    dlb::workload::model m) {
  std::vector<std::shared_ptr<const graph>> out;
  for (const grid_spec& spec : p.specs) {
    if (spec.comm_model != m) continue;
    for (const auto& gc : spec.graphs) out.push_back(gc.g);
  }
  return out;
}

constexpr dlb::workload::model all_models[] = {
    dlb::workload::model::diffusion, dlb::workload::model::periodic_matching,
    dlb::workload::model::random_matching};

/// continuous_process::step on processes built by make_continuous, per
/// model the workload runs, at the workload's shard count.
void probe_continuous(const pass_specs& p, unsigned shards, int steps,
                      metric_set& out) {
  for (const dlb::workload::model m : all_models) {
    const std::string label = dlb::workload::model_name(m);
    const auto graphs = graphs_of(p, m);
    if (graphs.empty()) {
      out.add_absent("core.continuous_step_ms." + label, "ms");
      out.add_absent("core.continuous_step_bytes." + label, "B_computed");
      continue;
    }
    std::vector<double> ms;
    double bytes = 0;
    for (const auto& g : graphs) {
      auto a = dlb::workload::make_continuous(
          m, g, dlb::uniform_speeds(g->num_nodes()), 1);
      const shard_rig rig = make_rig(*g, shards);
      if (rig.ctx != nullptr) dlb::try_enable_sharding(*a, rig.ctx);
      a->reset(spike_reals(*g, 50));
      a->step();  // first round fills caches and flow buffers
      for (int i = 0; i < steps; ++i) ms.push_back(time_ms([&] { a->step(); }));
      bytes += computed_step_bytes(*g, m != dlb::workload::model::diffusion);
    }
    out.add("core.continuous_step_ms." + label, median(ms), "ms");
    out.add("core.continuous_step_bytes." + label,
            bytes / static_cast<double>(graphs.size()), "B_computed");
  }
}

/// random_maximal_matching and the random-matching α fill, per call.
void probe_matching(const pass_specs& p, int calls, metric_set& out) {
  const auto graphs = graphs_of(p, dlb::workload::model::random_matching);
  if (graphs.empty()) {
    out.add_absent("graph.matching_ms", "ms");
    out.add_absent("core.alpha_fill_ms", "ms");
    return;
  }
  std::vector<double> match_ms;
  std::vector<double> fill_ms;
  std::size_t matched = 0;
  for (const auto& g : graphs) {
    const dlb::random_matching_schedule sched(
        *g, dlb::uniform_speeds(g->num_nodes()), 7);
    std::vector<real_t> alphas;
    for (int t = 0; t < calls; ++t) {
      match_ms.push_back(time_ms([&] {
        matched += dlb::random_maximal_matching(*g, 7, static_cast<std::uint64_t>(t))
                       .size();
      }));
      fill_ms.push_back(time_ms([&] { sched.alphas(t, alphas); }));
    }
  }
  if (matched == 0) throw std::logic_error("matching probe drew no edges");
  out.add("graph.matching_ms", median(match_ms), "ms");
  out.add("core.alpha_fill_ms", median(fill_ms), "ms");
}

/// Misra–Gries colouring of the graphs of periodic-matching grids.
void probe_coloring(const pass_specs& p, metric_set& out) {
  const auto graphs = graphs_of(p, dlb::workload::model::periodic_matching);
  if (graphs.empty()) {
    out.add_absent("graph.coloring_ms", "ms");
    return;
  }
  std::vector<double> per_pass;
  for (int rep = 0; rep < 5; ++rep) {
    double ms = 0;
    for (const auto& g : graphs) {
      ms += time_ms([&] {
        if (dlb::misra_gries_edge_coloring(*g).num_colors <= 0) {
          throw std::logic_error("empty colouring");
        }
      });
    }
    per_pass.push_back(ms);
  }
  out.add("graph.coloring_ms", median(per_pass), "ms");
}

/// round_discrepancy on each graph at the workload's shard count, and
/// shard_plan construction at `plan_shards` (none when 1).
void probe_plan_and_discrepancy(const pass_specs& p, unsigned shards,
                                unsigned plan_shards, metric_set& out) {
  std::vector<double> plan_ms;
  std::vector<double> disc_ms;
  for (const grid_spec& spec : p.specs) {
    for (const auto& gc : spec.graphs) {
      if (plan_shards > 1) {
        for (int i = 0; i < 5; ++i) {
          plan_ms.push_back(time_ms([&] {
            const dlb::shard_plan plan(*gc.g, plan_shards);
            if (plan.num_shards() == 0) throw std::logic_error("empty plan");
          }));
        }
      }
      const dlb::speed_vector s = dlb::uniform_speeds(gc.g->num_nodes());
      auto d = spec.processes.front().build(
          gc.g, s, dlb::workload::spike_workload(*gc.g, s, spec.spike_per_node),
          spec.comm_model, 3);
      const shard_rig rig = make_rig(*gc.g, shards);
      if (rig.ctx != nullptr) dlb::try_enable_sharding(*d, rig.ctx);
      d->step();
      for (int i = 0; i < 30; ++i) {
        disc_ms.push_back(time_ms([&] {
          if (!(dlb::round_discrepancy(*d) >= 0)) {
            throw std::logic_error("negative discrepancy");
          }
        }));
      }
    }
  }
  if (plan_shards > 1) {
    out.add("core.sharding.plan_ms", median(plan_ms), "ms");
  } else {
    out.add_absent("core.sharding.plan_ms", "ms");
  }
  out.add("core.engine.discrepancy_ms", median(disc_ms), "ms");
}

/// thread_pool::parallel_for_each(4, empty) and steal_loop round trips.
void probe_thread_pool(unsigned threads, metric_set& out) {
  dlb::runtime::thread_pool pool(threads);
  std::vector<double> dispatch_us;
  std::vector<double> steal_us;
  for (int i = 0; i < 100; ++i) pool.parallel_for_each(threads, [](std::size_t) {});
  for (int i = 0; i < 2000; ++i) {
    dispatch_us.push_back(
        time_ms([&] { pool.parallel_for_each(threads, [](std::size_t) {}); }) *
        1e3);
  }
  for (int i = 0; i < 1000; ++i) {
    steal_us.push_back(time_ms([&] {
                         pool.steal_loop(
                             threads, threads,
                             [threads](std::size_t,
                                       const std::function<std::size_t()>& claim) {
                               while (claim() < threads) {
                               }
                             });
                       }) *
                       1e3);
  }
  out.add("runtime.thread_pool.dispatch_us_p50", median(dispatch_us), "us");
  out.add_tail("runtime.thread_pool.dispatch_us_p99", dispatch_us, 0.99, 1.0,
               "us");
  out.add("runtime.thread_pool.dispatch_samples",
          static_cast<double>(dispatch_us.size()), "count");
  out.add("runtime.thread_pool.steal_us_p50", median(steal_us), "us");
}

// ------------------------------------------------------------ metrics

/// Peak resident set of this process image, in MiB. Linux's getrusage
/// ru_maxrss also counts the image before execve, i.e. the launcher that
/// forked it (a Python runner's own ~14 MiB), so it is read from VmHWM, which
/// starts afresh at exec; getrusage is the fallback where that is missing.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

template <typename Field>
double median_of(const std::vector<pass_stats>& passes, Field field) {
  std::vector<double> v;
  for (const pass_stats& ps : passes) v.push_back(field(ps));
  return median(v);
}

/// A per-pass figure made of parts (timed units, set-up steps, timeline
/// segments) that every pass repeats: each part's median, or its minimum,
/// over the passes, summed. A stall that hits one part in one pass moves
/// only that sample, not the run's figure.
double sum_of_parts(const std::vector<pass_stats>& passes,
                    std::vector<double> pass_stats::*parts, bool minimum) {
  double sum = 0;
  const std::size_t n = (passes.front().*parts).size();
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> v;
    for (const pass_stats& ps : passes) {
      if (k < (ps.*parts).size()) v.push_back((ps.*parts)[k]);
    }
    sum += minimum ? *std::min_element(v.begin(), v.end()) : median(v);
  }
  return sum;
}

double sum_of_part_medians(const std::vector<pass_stats>& passes,
                           std::vector<double> pass_stats::*parts) {
  return sum_of_parts(passes, parts, /*minimum=*/false);
}

double unit_median_wall(const std::vector<pass_stats>& passes) {
  return sum_of_part_medians(passes, &pass_stats::unit_wall_s);
}

/// Folds passes into the run's tallies. Every pass runs identical cells, so
/// its rows (wall_ns masked) must repeat pass 0's exactly: a mismatch is a
/// nondeterministic cell and counts as a failed one.
void tally(const std::vector<pass_stats>& passes, run_result& r) {
  std::vector<std::string> notes;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const pass_stats& ps = passes[i];
    r.attempted += ps.attempted;
    r.failed += ps.failed;
    for (const std::string& f : ps.failures) r.report.push_back("FAIL " + f);
    for (const std::string& n : ps.notes) {
      if (std::find(notes.begin(), notes.end(), n) == notes.end()) {
        notes.push_back(n);
      }
    }
    if (i == 0) continue;
    const std::vector<std::string>& first = passes.front().rows;
    for (std::size_t k = 0; k < ps.rows.size(); ++k) {
      if (ps.row_failed[k] == 0 && (k >= first.size() || ps.rows[k] != first[k])) {
        r.failed += 1;
        r.report.push_back("FAIL pass " + std::to_string(i) + " row " +
                           std::to_string(k) + " differs from pass 0");
      }
    }
  }
  for (const std::string& n : notes) r.report.push_back("NOTE " + n);
  r.correct = r.failed == 0;
}

void add_end_to_end(const std::vector<pass_stats>& passes, double rss_mib,
                    run_result& r) {
  // On a shared host the wall clock also counts time the host gives the
  // benchmark's CPU to other work, and a neighbour on the same core slows
  // every instruction while it runs; both come in bursts of milliseconds and
  // swing from minute to minute by more than any bound. So the gated times
  // are process CPU time, and cpu_s sums each timeline segment's quickest
  // repeat over the passes: a neighbour only ever slows a segment, so its
  // quickest repeat is its least disturbed one. Set-up takes medians.
  const double cpu =
      sum_of_parts(passes, &pass_stats::timed_cpu_s, /*minimum=*/true);
  r.metrics.add("cpu_s", cpu, "s");
  r.metrics.add("node_rounds_per_s", passes.front().node_rounds / cpu,
                "node_rounds/s");
  r.metrics.add("setup_s",
                sum_of_part_medians(passes, &pass_stats::setup_cpu_s), "s");
  r.report.push_back(
      "wall clock (not gated): wall_s " +
      std::to_string(unit_median_wall(passes)) + " setup_s " +
      std::to_string(sum_of_part_medians(passes, &pass_stats::setup_parts_s)) +
      "; timed CPU segments per pass " +
      std::to_string(passes.front().timed_cpu_s.size()));
  r.metrics.add("peak_rss_mb", rss_mib, "MiB");
  // failed_cell_ratio = failed / attempted is the top-level pair; its
  // complement is the metric, because a metric must never read 0.
  r.metrics.add("passed_cell_ratio",
                1.0 - static_cast<double>(r.failed) /
                          static_cast<double>(std::max<std::uint64_t>(
                              r.attempted, 1)),
                "ratio");
}

/// Per-layer metrics of the traced passes. `sharded` are traced passes at
/// 4 shard threads (the workload's own or its twin; may be empty);
/// `s1_wall` / `s4_wall` the same cells' wall at 1 and 4 shard threads.
/// `pooled` are passes on a cell pool of more than one thread (may be
/// empty).
void add_traced(const workload_def& w, const std::vector<pass_stats>& traced,
                const std::vector<pass_stats>& sharded,
                const std::vector<pass_stats>& pooled, double untraced_wall,
                double s1_wall, double s4_wall, run_result& r) {
  metric_set& m = r.metrics;
  const auto med = [&](auto field) { return median_of(traced, field); };

  m.add("graph.build_ms", med([](const pass_stats& p) { return p.graph_ms; }),
        "ms");

  // Step times, round deltas and cell times, pooled over the traced passes.
  std::map<std::string, std::vector<double>> steps;
  std::vector<double> rounds;
  std::vector<double> cell_setup;
  std::vector<double> cell_ms;
  for (const pass_stats& p : traced) {
    for (const auto& [k, v] : p.step_ms) {
      steps[k].insert(steps[k].end(), v.begin(), v.end());
    }
    rounds.insert(rounds.end(), p.round_ms.begin(), p.round_ms.end());
    cell_setup.insert(cell_setup.end(), p.cell_setup_ms.begin(),
                      p.cell_setup_ms.end());
    cell_ms.insert(cell_ms.end(), p.cell_ms.begin(), p.cell_ms.end());
  }
  for (const char* k : {"round_down", "quasirandom", "rand_rounding", "alg1",
                        "alg2", "excess_tokens", "random_walk"}) {
    const std::string name = std::string("core.discrete_step_ms.") + k;
    const auto it = steps.find(k);
    if (it == steps.end() || it->second.empty()) {
      m.add_absent(name, "ms");
    } else {
      // A mean, not a median: a competitor's rounds can differ in kind
      // (random-walk's coarse phase vs its walker phase), and the mean is
      // what sums to the layer's share of the wall.
      double sum = 0;
      for (const double v : it->second) sum += v;
      m.add(name, sum / static_cast<double>(it->second.size()), "ms");
    }
  }
  // Round deltas: the time between successive step() calls of one cell —
  // what a round_observer sees between its calls.
  m.add("core.engine.round_ms_p50", rounds.empty() ? 0 : median(rounds), "ms");
  m.add_tail("core.engine.round_ms_p99", rounds, 0.99, 1.0, "ms");
  m.add("core.engine.round_samples", static_cast<double>(rounds.size()),
        "count");
  if (traced.front().probe_rounds > 0) {
    m.add("core.engine.probe_ms_per_round", med([](const pass_stats& p) {
            return p.probe_ns / ns_per_ms / std::max(p.probe_rounds, 1.0);
          }),
          "ms");
  } else {
    m.add_absent("core.engine.probe_ms_per_round", "ms");
  }
  if (!sharded.empty()) {
    m.add("core.sharding.phases_per_round",
          median_of(sharded,
                    [](const pass_stats& p) {
                      return p.phases / std::max(p.discrete_rounds, 1.0);
                    }),
          "count");
    m.add("core.sharding.barrier_wait_share",
          median_of(sharded,
                    [](const pass_stats& p) {
                      return p.barrier_ns /
                             std::max(p.barrier_ns + p.phase_ns, 1.0);
                    }),
          "ratio");
    // Reported, not gated: a faster one-thread kernel lowers it while
    // improving every wall time.
    m.add("core.sharding.speedup_s4", s1_wall / s4_wall, "ratio");
  } else {
    m.add_absent("core.sharding.phases_per_round", "count");
    m.add_absent("core.sharding.barrier_wait_share", "ratio");
    m.add_absent("core.sharding.speedup_s4", "ratio");
  }

  m.add("runtime.experiment_grid.cell_setup_ms", median(cell_setup), "ms");
  if (w.via_grid) {
    m.add("runtime.experiment_grid.cell_ms_p50", median(cell_ms), "ms");
    m.add_tail("runtime.experiment_grid.cell_ms_p90", cell_ms, 0.90, 1.0, "ms");
    m.add("runtime.experiment_grid.cell_samples",
          static_cast<double>(cell_ms.size()), "count");
  } else {
    m.add_absent("runtime.experiment_grid.cell_ms_p50", "ms");
    m.add_absent("runtime.experiment_grid.cell_ms_p90", "ms");
    m.add_absent("runtime.experiment_grid.cell_samples", "count");
  }
  if (!pooled.empty()) {
    m.add("runtime.experiment_grid.idle_share",
          median_of(pooled,
                    [](const pass_stats& p) {
                      return 1.0 - p.busy_cell_ms /
                                       (p.wall_s * 1e3 *
                                        static_cast<double>(p.cell_threads));
                    }),
          "ratio");
  } else {
    m.add_absent("runtime.experiment_grid.idle_share", "ratio");
  }

  // Self time per layer over a traced pass, and the part of the timed
  // section no layer span covers (the engine's own loop: arrival draws,
  // discrepancy sampling, round bookkeeping).
  m.add("graph.self_ms", med([](const pass_stats& p) { return p.graph_ms; }),
        "ms");
  m.add("workload.self_ms", med([](const pass_stats& p) { return p.build_ms; }),
        "ms");
  m.add("core.self_ms", med([](const pass_stats& p) { return p.core_ms; }),
        "ms");
  m.add("core.engine.self_ms",
        med([](const pass_stats& p) { return p.engine_ms; }), "ms");
  m.add("baselines.self_ms",
        med([](const pass_stats& p) { return p.baselines_ms; }), "ms");
  m.add("runtime.experiment_grid.self_ms",
        med([](const pass_stats& p) {
          double ms = 0;
          for (const double v : p.cell_setup_ms) ms += v;
          return ms;
        }),
        "ms");
  m.add("trace.unattributed_ms",
        med([](const pass_stats& p) { return p.unattributed_ms; }), "ms");
  m.add("trace.unattributed_share", med([](const pass_stats& p) {
          return p.unattributed_ms / std::max(p.engine_call_ms, 1e-9);
        }),
        "ratio");
  const double traced_wall = unit_median_wall(traced);
  m.add("trace.wall_s", traced_wall, "s");
  m.add("trace.overhead_s", traced_wall - untraced_wall, "s");
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const workload_def& w : workloads()) names.emplace_back(w.name);
  return names;
}

run_result run_workload(const run_options& opts) {
  const workload_def& w = find_workload(opts.workload);
  const sizing z;
  run_result r;
  const std::int64_t start = now_ns();
  const auto elapsed_s = [start] {
    return static_cast<double>(now_ns() - start) / ns_per_s;
  };
  const auto pass = [&](const char* kind, layout threads,
                        dlb::obs::recorder* rec) {
    pass_stats ps = run_pass(w, opts.seed, z, threads, rec);
    r.report.push_back(std::string(kind) + " pass (" +
                       std::to_string(threads.cell_threads) + " cell, " +
                       std::to_string(threads.shards) +
                       " shard threads): wall_s " + std::to_string(ps.wall_s) +
                       " setup_s " + std::to_string(ps.setup_s) +
                       " cpu_s " + std::to_string(sum(ps.timed_cpu_s)) +
                       " setup_cpu_s " + std::to_string(sum(ps.setup_cpu_s)) +
                       " cells " +
                       std::to_string(ps.attempted));
    return ps;
  };

  if (!opts.trace) {
    // Passes of identical cells until the run length is spent; the metrics
    // are taken over the passes (add_end_to_end).
    // Peak RSS is read after the first pass: later passes add allocator
    // fragmentation, and how many fit in the run length varies.
    std::vector<pass_stats> passes;
    double rss_mib = 0;
    do {
      passes.push_back(pass("untraced", w.gated, nullptr));
      if (passes.size() == 1) rss_mib = peak_rss_mib();
    } while (elapsed_s() < opts.seconds);
    tally(passes, r);
    // cpu_s pairs the k-th timed segment of every pass; that needs every
    // pass to cut its timeline alike, which identical cells guarantee.
    for (const pass_stats& ps : passes) {
      if (r.failed == 0 &&
          ps.timed_cpu_s.size() != passes.front().timed_cpu_s.size()) {
        throw std::runtime_error("passes cut their CPU timelines differently");
      }
    }
    add_end_to_end(passes, rss_mib, r);
    return r;
  }

  // Traced run: untraced passes first (the overhead baseline), then traced
  // passes with spans, then the twin pass at the other shard count, then
  // the standalone layer probes. At least two of each, so no median rests
  // on one pass.
  std::vector<pass_stats> untraced;
  std::vector<pass_stats> traced;
  do {
    untraced.push_back(pass("untraced", w.gated, nullptr));
  } while (untraced.size() < 2 || elapsed_s() < opts.seconds / 4);
  // Traced passes also continue until the round deltas can carry a p99
  // (min_tail_samples beyond it), within a cap on the run's length.
  std::size_t round_samples = 0;
  do {
    dlb::obs::recorder rec;
    traced.push_back(pass("traced", w.gated, &rec));
    round_samples += traced.back().round_ms.size();
  } while (traced.size() < 2 || elapsed_s() < opts.seconds / 2 ||
           (round_samples < 100 * min_tail_samples &&
            elapsed_s() < 2 * opts.seconds));
  const double untraced_wall = unit_median_wall(untraced);

  std::vector<pass_stats> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  std::vector<pass_stats> sharded;
  std::vector<pass_stats> pooled;
  double s1_wall = 0;
  double s4_wall = 0;
  if (w.twin.shards > 0) {
    // The twin's rows join the cross-pass check: they must match the gated
    // passes' byte for byte at the other thread count.
    dlb::obs::recorder rec;
    all.push_back(pass("twin traced", w.twin, &rec));
    const pass_stats& twin = all.back();
    if (w.gated.shards > 1) {
      sharded = traced;
      s4_wall = untraced_wall;
      s1_wall = twin.wall_s;
    } else if (w.twin.shards > 1) {
      sharded.push_back(twin);
      s1_wall = untraced_wall;
      s4_wall = twin.wall_s;
    }
    if (w.twin.cell_threads > 1) pooled.push_back(twin);
  }
  tally(all, r);
  add_traced(w, traced, sharded, pooled, untraced_wall, s1_wall, s4_wall, r);

  const pass_specs probe_specs = w.make(opts.seed, z);
  const unsigned plan_shards = std::max(w.gated.shards, w.twin.shards);
  probe_continuous(probe_specs, w.gated.shards, 20, r.metrics);
  probe_matching(probe_specs, 20, r.metrics);
  probe_coloring(probe_specs, r.metrics);
  probe_plan_and_discrepancy(probe_specs, w.gated.shards, plan_shards,
                             r.metrics);
  const unsigned pool_threads = std::max(plan_shards, w.twin.cell_threads);
  if (pool_threads > 1) {
    probe_thread_pool(pool_threads, r.metrics);
  } else {
    r.metrics.add_absent("runtime.thread_pool.dispatch_us_p50", "us");
    r.metrics.add_absent("runtime.thread_pool.dispatch_us_p99", "us");
    r.metrics.add_absent("runtime.thread_pool.dispatch_samples", "count");
    r.metrics.add_absent("runtime.thread_pool.steal_us_p50", "us");
  }
  return r;
}

int self_test_determinism(std::ostream& log) {
  int failures = 0;
  sizing small;
  small.side = 64;
  small.expander_n = 1 << 12;
  small.sparse_rounds = 40;
  for (const workload_def& w : workloads()) {
    if (std::max(w.gated.shards, w.twin.shards) <= 1) continue;
    std::vector<std::vector<std::string>> rows;
    for (const unsigned s : {4U, 1U}) {
      const pass_stats ps = run_pass(w, 11, small, {1, s}, nullptr);
      for (const std::string& f : ps.failures) log << "FAIL " << f << "\n";
      failures += static_cast<int>(ps.failed);
      rows.push_back(ps.rows);
    }
    if (rows[0].empty() || rows[0] != rows[1]) {
      log << "FAIL determinism: " << w.name
          << " rows at 4 shard threads differ from 1 shard thread\n";
      ++failures;
    }
  }
  return failures;
}

}  // namespace perfbench
