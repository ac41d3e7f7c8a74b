// Sharded stepping: intra-graph parallelism for a single huge network.
//
// The paper's processes are synchronous per-round maps over all nodes, so one
// round decomposes into embarrassingly parallel per-edge and per-node phases
// separated by barriers (compute flows → apply flows; allocate send sets →
// deliver).  A `shard_context` couples a `shard_plan` (the graph's size, the
// number of claim-loop groups, and a cache-locality edge layout) with the
// runners (typically a dlb::runtime::thread_pool) that execute one body per
// group and block until all finish — the barrier.
//
// `sharded_stepper` is the shared protocol every process in the repo steps
// through: derived classes express their round as edge_phase()/node_phase()
// calls (plus node_phase_reduce for order-independent per-slot folds), and
// the base runs them over the full range when sequential or chunk-by-chunk
// when a context is installed — same bits either way.
//
// A sharded phase splits its range into fixed-size chunks (phase_chunk_items
// each; boundaries a pure function of the item count, NEVER of the shard
// count) and `num_shards` claim-loop groups pull chunk indices from one
// shared atomic cursor until the range drains, so irregular per-item cost
// never parks a fast group at the barrier — it takes the remaining chunks
// instead. The engine's whole-vector reductions (discrepancy extrema, the
// T^A probe's speed total, membership test, and blocked load sum) fold over
// the same kind of fixed grid through for_each_chunk. The cursor lives in
// this translation unit (or in thread_pool::steal_loop, its runner-side
// twin); it is the one blessed fetch-based work-distribution point in the
// tree (tools/dlb_lint.py, rule "atomic-claim").
//
// Determinism contract (docs/ARCHITECTURE.md, "Sharded stepping" and "Round
// kernels & chunked execution"): a sharded step must be *bit-identical* to
// the sequential step for any shard count. The phase decomposition
// guarantees this because
//  * per-edge quantities (flows, cumulative-flow updates, deficits) are pure
//    functions of the pre-round state — so both the partition into chunks
//    and the *visit order within* a chunk are free, which is what lets a
//    shard_plan install a cache-locality edge permutation (edge_order(),
//    traversed through core/phase_slice.hpp),
//  * per-node accumulators (load updates, outgoing sums, task pools) receive
//    their contributions in ascending incident-edge order — exactly the order
//    the sequential edge loop applies them, because graph adjacency lists are
//    built in ascending edge-id order, and
//  * randomized per-entity decisions draw from counter-based RNG streams
//    (common/rng.hpp counter_rng), pure functions of (seed, entity, round),
//    never from a shared sequential engine.
// No floating-point sum is ever regrouped by the shard count; integer
// reductions (dummy counters) and min/max reductions (discrepancy extrema)
// are order-independent by construction, and the one floating-point total
// the engine needs (the is_balanced load sum) goes through `blocked_sum`,
// whose grouping is a pure function of the vector length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "dlb/common/types.hpp"
#include "dlb/core/phase_slice.hpp"
#include "dlb/graph/graph.hpp"
#include "dlb/obs/probe.hpp"
#include "dlb/obs/prof.hpp"

namespace dlb {

/// Executes body(i) for every i in [0, count) — possibly in parallel — and
/// returns only when all invocations finished (the phase barrier). The serial
/// fallback is simply a for loop; dlb::runtime adapts thread_pool to this.
using shard_runner = std::function<void(
    std::size_t count, const std::function<void(std::size_t)>& body)>;

/// Executes `groups` claim-loop bodies — possibly in parallel — and returns
/// only when all finished. Each body repeatedly invokes its `claim` callable;
/// claims across all groups return every index in [0, chunks) exactly once
/// and then values >= chunks forever (the drain signal). The serial fallback
/// hands every chunk to group 0; dlb::runtime adapts
/// thread_pool::steal_loop to this.
using steal_runner = std::function<void(
    std::size_t groups, std::size_t chunks,
    const std::function<void(std::size_t group,
                             const std::function<std::size_t()>& claim)>&
        body)>;

/// How a sharded phase distributes its range. Nothing reads it: chunked
/// work stealing is the only runner. The type is kept only so existing
/// aggregate initializers of shard_context ({plan, run, exec, steal})
/// still compile.
enum class shard_exec {
  work_stealing,  ///< fixed-size chunks claimed from a shared cursor
};

/// Number of items (edges or nodes) per work-stealing chunk. A pure
/// constant: chunk boundaries depend on the phase's item count only, so the
/// partition — and therefore every output bit — is identical at any shard
/// count. Small enough that a 1M-item phase exposes ~64 chunks to 8 shards
/// (fine-grained enough to absorb a 10x per-item skew), large enough that
/// one claim amortizes over thousands of items.
inline constexpr std::size_t phase_chunk_items = 16384;

/// What a context needs to know about one graph: its node and edge counts
/// (the item counts of node and edge phases), the number of claim-loop
/// groups — the requested shard count clamped to [1, n] — and the
/// cache-locality edge layout. A one-time pass blocks the edge ids by
/// (u/B, v/B) so an edge phase streaming positions touches node slices a
/// block at a time instead of scattering across the whole load vector. The
/// permutation is stable by edge id within a block and is kept as an index
/// map (edge_order()); graphs that are already local (everything under one
/// block, e.g. every test-sized graph) detect the identity and keep the
/// null layout, so their phases pay nothing.
class shard_plan {
 public:
  shard_plan() = default;
  shard_plan(const graph& g, std::size_t num_shards);

  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_; }
  [[nodiscard]] node_id num_nodes() const noexcept { return n_; }
  [[nodiscard]] edge_id num_edges() const noexcept { return m_; }

  /// The edge-visit permutation (position → edge id), or nullptr when the
  /// identity layout was kept. Edge phases traverse positions through this
  /// map (core/phase_slice.hpp); everything else — ledgers, flows, adjacency
  /// folds — keeps indexing by edge id, untouched.
  [[nodiscard]] const edge_id* edge_order() const noexcept {
    return edge_order_.empty() ? nullptr : edge_order_.data();
  }

 private:
  node_id n_ = 0;
  edge_id m_ = 0;
  std::size_t shards_ = 0;
  std::vector<edge_id> edge_order_;  // empty = identity layout
};

/// A plan plus the runner that executes its shards. One context is built per
/// experiment cell (outside the timed engine call) and shared by the discrete
/// process and its internal continuous reference.
struct shard_context {
  shard_plan plan;
  shard_runner run;
  /// Unread; see shard_exec.
  shard_exec exec = shard_exec::work_stealing;
  /// The claim loop. Optional: when null, phases synthesize the claim loop
  /// over `run` with a local cursor — equivalent bits, just without the
  /// pool-side primitive (serial test contexts use this path).
  steal_runner steal = nullptr;

  /// Runs fn(shard) for every shard and waits for all — one barrier phase.
  void for_each_shard(const std::function<void(std::size_t)>& fn) const {
    run(plan.num_shards(), fn);
  }
};

/// Chunk count of the fixed grid over `total` items, `chunk_items` each: at
/// least one chunk even for an empty range, so every phase still runs its
/// barrier and every fold sees one part.
[[nodiscard]] std::size_t chunk_count(std::size_t total,
                                      std::size_t chunk_items);

/// Runs slice(chunk, lo, hi) once for every chunk [lo, hi) of the fixed
/// grid over [0, total), claimed by the context's groups through the one
/// claim loop, and returns when all chunks ran (the barrier). Which group
/// runs a chunk varies run to run; the chunks themselves never do. A
/// single-chunk grid runs inline on the calling thread.
void for_each_chunk(
    const shard_context& ctx, std::size_t total, std::size_t chunk_items,
    const std::function<void(std::size_t chunk, std::size_t lo,
                             std::size_t hi)>& slice);

/// Folds body(lo, hi) over the fixed chunk grid: one part per chunk, folded
/// from `init` in ascending chunk order. The grouping depends on total and
/// chunk_items only, so for an order-free fold (min/max, integer sum, AND)
/// the result equals fold(init, body(0, total)) bit for bit.
template <typename T, typename Body, typename Fold>
T fold_chunks(const shard_context& ctx, std::size_t total,
              std::size_t chunk_items, T init, const Body& body, Fold fold) {
  static_assert(!std::is_same_v<T, bool>,
                "use int: vector<bool> bit-packs, and concurrent per-chunk "
                "writes to one word would race");
  std::vector<T> parts(chunk_count(total, chunk_items), init);
  for_each_chunk(ctx, total, chunk_items,
                 [&](std::size_t c, std::size_t lo, std::size_t hi) {
                   parts[c] = body(lo, hi);
                 });
  T acc = init;
  for (const T& part : parts) acc = fold(acc, part);
  return acc;
}

/// Mixin for processes that support two-phase sharded stepping. Enabling is
/// a pure execution-strategy switch: all observable state (loads, flows,
/// pools, RNG streams) evolves bit-identically to the sequential path.
class shardable {
 public:
  virtual ~shardable() = default;

  /// Switches step() to sharded execution. The context's plan must describe
  /// this process's topology (node/edge counts are checked).
  virtual void enable_sharded_stepping(
      std::shared_ptr<const shard_context> ctx) = 0;

  /// The active context, or nullptr when stepping sequentially.
  [[nodiscard]] virtual std::shared_ptr<const shard_context> sharding()
      const = 0;

  /// Min/max load-per-speed over nodes [begin, end), folded into lo/hi (which
  /// the caller seeds with +/-inf sentinels). Real loads, dummies eliminated —
  /// the quantity the engine's per-round discrepancy metrics read.
  virtual void real_load_extrema(node_id begin, node_id end, real_t& lo,
                                 real_t& hi) const = 0;
};

/// The shared protocol base: implements the `shardable` plumbing once and
/// gives derived processes the three phase primitives their step() is built
/// from. With no context installed every phase runs over the full range on
/// the calling thread; with one, each phase runs chunk by chunk through the
/// claim loop and the runner's completion is the barrier. Derived classes only have to uphold
/// the phase purity rules in the header comment above — the "make your
/// process shardable" guide in docs/ARCHITECTURE.md walks through a port.
class sharded_stepper : public shardable {
 public:
  void enable_sharded_stepping(
      std::shared_ptr<const shard_context> ctx) final;
  [[nodiscard]] std::shared_ptr<const shard_context> sharding()
      const final {
    return shard_;
  }

  /// Attaches an observability probe: every phase then emits one span per
  /// claim-loop group (the span's shard slot carries the group index, so
  /// barrier-wait share and skew stay attributable) plus a barrier-wait span
  /// each, and bumps the probe's
  /// metrics counters. Pure observation — stepping stays bit-identical
  /// (obs/probe.hpp). A default probe detaches.
  void set_probe(const obs::probe& pb) {
    probe_ = pb;
    on_probe_attached(probe_);
  }
  [[nodiscard]] const obs::probe& probe() const noexcept { return probe_; }

 protected:
  /// The topology the shard plan must match (checked on enable).
  [[nodiscard]] virtual const graph& shard_topology() const = 0;

  /// Called after a context is installed — the hook flow imitators use to
  /// forward the same context to their internal continuous reference.
  virtual void on_sharding_enabled(
      const std::shared_ptr<const shard_context>& ctx) {
    (void)ctx;
  }

  /// Called after a probe is attached — the parallel hook: flow imitators
  /// forward the probe to their internal continuous reference so its phases
  /// report to the same cell.
  virtual void on_probe_attached(const obs::probe& pb) { (void)pb; }

  /// Credits `n` tokens physically transferred across edges to the attached
  /// metrics (no-op without one). Processes call this from the receiving
  /// side of their apply/receive phases, so every moved token is counted
  /// exactly once and the total is shard-count independent.
  void add_tokens_moved(std::uint64_t n) const noexcept;

  /// Pure per-edge phase: body(slice) over contiguous position ranges of
  /// the plan's edge layout (identity when sequential or unpermuted). The
  /// body may read any pre-phase state but write only the per-edge slots of
  /// the edges its slice visits.
  void edge_phase(const std::function<void(const edge_slice&)>& body) const;

  /// Per-node phase: body(i0, i1) over contiguous node ranges. The body may
  /// write per-node state of its own nodes and per-(edge, direction) slots
  /// whose single writer is one of its nodes; per-node accumulators must
  /// fold incident edges in ascending edge-id order.
  void node_phase(const std::function<void(node_id, node_id)>& body) const;

  /// Node phase folding one value per chunk into an order-independent
  /// reduction (integer sums, min/max, boolean OR — never a float sum).
  /// `init` is the fold identity. Partial values are folded in ascending
  /// chunk order, but the sequential path folds one part for the whole
  /// range, so order independence is what keeps the two bit-equal.
  template <typename T, typename Fold>
  T node_phase_reduce(T init,
                      const std::function<T(node_id, node_id)>& body,
                      Fold fold) const {
    static_assert(!std::is_same_v<T, bool>,
                  "use int: vector<bool> bit-packs, and concurrent per-chunk "
                  "writes to one word would race");
    if (shard_ == nullptr) {
      const node_id n = shard_topology().num_nodes();
      const phase_span span(*this, phase_kind::reduce,
                            static_cast<std::size_t>(n));
      return fold(init, body(0, n));
    }
    std::vector<T> parts(
        chunk_count(static_cast<std::size_t>(shard_->plan.num_nodes()),
                    phase_chunk_items),
        init);
    for_each_slice(phase_kind::reduce,
                   [&](std::size_t c, std::size_t lo, std::size_t hi) {
                     parts[c] = body(static_cast<node_id>(lo),
                                        static_cast<node_id>(hi));
                   });
    T acc = init;
    for (const T& part : parts) acc = fold(acc, part);
    return acc;
  }

 private:
  /// Which primitive a slice run belongs to — selects the span names and
  /// whether ranges cut edges or nodes.
  enum class phase_kind { edge, node, reduce };

  /// Shared sharded loop of the three phase primitives: runs slice(chunk,
  /// lo, hi) once per fixed-size chunk of the phase's range, emitting one
  /// phase span per claim group plus the per-group barrier-wait spans and
  /// counter bumps when a probe is attached. Requires shard_ != nullptr
  /// (the sequential paths instrument inline via phase_span).
  void for_each_slice(
      phase_kind kind,
      const std::function<void(std::size_t chunk, std::size_t lo,
                               std::size_t hi)>& slice) const;

  /// RAII instrumentation of a *sequential* full-range phase: no-op without
  /// a probe, otherwise one span (shard 0) plus the counter bump. Lets the
  /// node_phase_reduce template stay free of recorder details.
  class phase_span {
   public:
    phase_span(const sharded_stepper& st, phase_kind kind,
               std::size_t items) noexcept;
    ~phase_span();
    phase_span(const phase_span&) = delete;
    phase_span& operator=(const phase_span&) = delete;

   private:
    const sharded_stepper& st_;
    phase_kind kind_;
    std::size_t items_;
    std::int64_t start_ns_ = 0;
    obs::prof::hw_reading prof_start_;  // counters at phase entry (if prf)
  };

  std::shared_ptr<const shard_context> shard_;  // null → sequential stepping
  obs::probe probe_;  // default = observability off
};

/// Enables sharded stepping when the process implements `shardable`; returns
/// false (leaving the process sequential) otherwise. Works for both
/// continuous_process and discrete_process.
template <typename Process>
bool try_enable_sharding(Process& p,
                         std::shared_ptr<const shard_context> ctx) {
  if (auto* sh = dynamic_cast<shardable*>(&p)) {
    sh->enable_sharded_stepping(std::move(ctx));
    return true;
  }
  return false;
}

/// Attaches an observability probe when the process steps through
/// sharded_stepper; returns false (leaving it unobserved) otherwise. The
/// probe counterpart of try_enable_sharding.
template <typename Process>
bool try_attach_probe(Process& p, const obs::probe& pb) {
  if (auto* st = dynamic_cast<sharded_stepper*>(&p)) {
    st->set_probe(pb);
    return true;
  }
  return false;
}

/// Max-min discrepancy of `sh`'s real loads via a parallel min/max fold over
/// node chunks. Exactly equal to max_min_discrepancy(real_loads, speeds):
/// min/max folds are associative, so the chunk grouping cannot change the
/// result.
[[nodiscard]] real_t sharded_max_min_discrepancy(const shardable& sh);

/// Folds min/max load-per-speed over nodes [begin, end) into lo/hi — the
/// shared body of the `real_load_extrema` overrides of processes whose real
/// loads *are* their load vector (the baselines). Keeping the discrepancy
/// convention in one place is what keeps the sharded and sequential metrics
/// bit-equal across every process.
void per_speed_extrema(const std::vector<weight_t>& loads,
                       const std::vector<weight_t>& speeds, node_id begin,
                       node_id end, real_t& lo, real_t& hi);

/// Net inflow of node `i` under a per-edge signed send vector oriented u→v
/// (+ = u sends v), folding incident edges in ascending edge-id order — the
/// shared apply-phase body of processes whose round reduces to one signed
/// integer per edge (round-down diffusion, the rounding baselines). The
/// direction convention (i is the edge's u iff the neighbor id is larger)
/// lives here so ports cannot silently flip a sign.
[[nodiscard]] weight_t signed_edge_inflow(
    const graph& g, const std::vector<weight_t>& edge_sent, node_id i);

/// Deterministic blocked sum: partial sums over fixed-size blocks of x
/// (left-to-right within a block), folded in block order. The grouping is a
/// pure function of x.size() — never of the shard count — so the sequential
/// overload and the sharded overload return *identical bits*, and vectors
/// shorter than one block reproduce the plain left-to-right sum exactly.
/// This is the one floating-point total the engine parallelizes (the
/// is_balanced load sum at n ≈ 10^6 per probe round).
[[nodiscard]] real_t blocked_sum(const std::vector<real_t>& x);
[[nodiscard]] real_t blocked_sum(const std::vector<real_t>& x,
                                 const shard_context& ctx);

}  // namespace dlb
