#include "dlb/core/sharding.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "dlb/common/contracts.hpp"
#include "dlb/obs/metrics.hpp"
#include "dlb/obs/recorder.hpp"

namespace dlb {

namespace {

// Block length of blocked_sum. Small enough that one probe round exposes
// plenty of blocks to 8 shards at n ≈ 10^5, large enough that the per-block
// fold overhead vanishes; vectors up to this length sum strictly
// left-to-right, so every pre-existing small-grid result is bit-unchanged.
constexpr std::size_t sum_block = 4096;

real_t sum_range(const std::vector<real_t>& x, std::size_t lo,
                 std::size_t hi) {
  real_t acc = 0;
  for (std::size_t i = lo; i < hi; ++i) acc += x[i];
  return acc;
}

// Node-block width of the edge-locality layout: edges are grouped by
// (u/block, v/block), stably by edge id within a group, so one chunk's
// endpoint reads stay inside a pair of node windows (≈ 32 KiB of load
// vector each) instead of scattering across the whole vector — the win on
// hypercubes and random graphs, where half of each edge's endpoints are far
// apart under any node numbering. Graphs whose nodes all fit one block
// (every test-sized graph) keep the null layout and pay nothing.
constexpr node_id layout_block = 4096;

// The (position → edge id) layout permutation, or empty when the blocked
// order is the identity. Detecting the identity matters: it keeps the
// extra indirection (and the O(m) map) off graphs that are already local.
std::vector<edge_id> blocked_edge_order(const graph& g) {
  const edge_id m = g.num_edges();
  if (g.num_nodes() <= layout_block || m < 2) return {};
  std::vector<std::pair<std::uint64_t, edge_id>> keyed(
      static_cast<std::size_t>(m));
  for (edge_id e = 0; e < m; ++e) {
    const edge& ed = g.endpoints(e);
    const auto bu = static_cast<std::uint64_t>(ed.u / layout_block);
    const auto bv = static_cast<std::uint64_t>(ed.v / layout_block);
    keyed[static_cast<std::size_t>(e)] = {(bu << 32) | bv, e};
  }
  // Plain sort of (key, id) pairs == stable sort by key: ties break by edge
  // id, so within a block the ascending-id order is preserved.
  std::sort(keyed.begin(), keyed.end());
  std::vector<edge_id> order(static_cast<std::size_t>(m));
  bool identity = true;
  for (edge_id p = 0; p < m; ++p) {
    order[static_cast<std::size_t>(p)] = keyed[static_cast<std::size_t>(p)].second;
    if (order[static_cast<std::size_t>(p)] != p) identity = false;
  }
  if (identity) return {};
  return order;
}

using chunk_fn =
    std::function<void(std::size_t chunk, std::size_t lo, std::size_t hi)>;

// The one claim loop. Runs slice over every chunk of the fixed grid on the
// context's groups; group(g, drain) wraps each group's share, where drain()
// runs the chunks that group claims and returns their item count (the hook
// the phase instrumentation times). The pool-side steal primitive is used
// when the context has one; otherwise the claim loop is synthesized over
// the plain runner with a local cursor. This cursor and its thread_pool
// twin are the blessed atomic work-distribution points (tools/dlb_lint.py,
// "atomic-claim").
void claim_chunks(
    const shard_context& ctx, std::size_t total, std::size_t chunk_items,
    const chunk_fn& slice,
    const std::function<void(std::size_t group,
                             const std::function<std::size_t()>& drain)>&
        group) {
  const std::size_t chunks = chunk_count(total, chunk_items);
  const auto run_group = [&](std::size_t g,
                             const std::function<std::size_t()>& claim) {
    group(g, [&]() -> std::size_t {
      std::size_t items = 0;
      for (;;) {
        const std::size_t c = claim();
        if (c >= chunks) break;
        const std::size_t lo = c * chunk_items;
        const std::size_t hi = std::min(total, lo + chunk_items);
        slice(c, lo, hi);
        items += hi - lo;
      }
      return items;
    });
  };
  if (ctx.steal != nullptr) {
    ctx.steal(ctx.plan.num_shards(), chunks, run_group);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  const std::function<std::size_t()> claim = [&cursor] {
    return cursor.fetch_add(1, std::memory_order_relaxed);
  };
  ctx.for_each_shard([&](std::size_t g) { run_group(g, claim); });
}

}  // namespace

shard_plan::shard_plan(const graph& g, std::size_t num_shards)
    : n_(g.num_nodes()),
      m_(g.num_edges()),
      // No more groups than nodes, and at least one so a plan always has a
      // group to run phases on (an edgeless or empty graph included).
      shards_(std::max<std::size_t>(
          1, std::min<std::size_t>(num_shards,
                                   static_cast<std::size_t>(n_)))),
      edge_order_(blocked_edge_order(g)) {
  DLB_EXPECTS(num_shards >= 1);
}

std::size_t chunk_count(std::size_t total, std::size_t chunk_items) {
  return std::max<std::size_t>(1, (total + chunk_items - 1) / chunk_items);
}

void for_each_chunk(const shard_context& ctx, std::size_t total,
                    std::size_t chunk_items, const chunk_fn& slice) {
  if (chunk_count(total, chunk_items) == 1) {
    slice(0, 0, total);
    return;
  }
  claim_chunks(ctx, total, chunk_items, slice,
               [](std::size_t, const std::function<std::size_t()>& drain) {
                 drain();
               });
}

void sharded_stepper::enable_sharded_stepping(
    std::shared_ptr<const shard_context> ctx) {
  DLB_EXPECTS(ctx != nullptr);
  DLB_EXPECTS(ctx->plan.num_nodes() == shard_topology().num_nodes());
  DLB_EXPECTS(ctx->plan.num_edges() == shard_topology().num_edges());
  shard_ = ctx;
  on_sharding_enabled(shard_);
}

namespace {

/// Static span-name literals per phase kind (span_record stores the
/// pointer, never a copy, so these must have program lifetime).
struct phase_labels {
  const char* span;
  const char* barrier;
  bool edge_items;  ///< ranges (and the touched counter) cut edges, not nodes
};

const phase_labels& labels_of(int kind) {
  static constexpr phase_labels table[] = {
      {"edge_phase", "barrier:edge_phase", true},
      {"node_phase", "barrier:node_phase", false},
      {"node_phase_reduce", "barrier:node_phase_reduce", false},
  };
  return table[kind];
}

}  // namespace

void sharded_stepper::for_each_slice(
    phase_kind kind,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& slice)
    const {
  const phase_labels& labels = labels_of(static_cast<int>(kind));
  const shard_plan& plan = shard_->plan;
  const std::size_t shards = plan.num_shards();
  const std::size_t total = labels.edge_items
                                ? static_cast<std::size_t>(plan.num_edges())
                                : static_cast<std::size_t>(plan.num_nodes());

  obs::recorder* rec = probe_.rec;
  obs::metrics* met = probe_.met;
  obs::prof::profiler* prf = probe_.prf;

  // Per-group instrumentation: one phase span per claim-loop group — the
  // span's shard slot carries the group index, so barrier share and skew
  // analysis read it like a shard. `drain` runs the group's chunks and
  // returns the item count it processed; each group records its own end
  // time, and once the runner returns (the barrier) everything after a
  // group's finish is wait — synthesized below without any cross-thread
  // signalling on the hot path.
  std::vector<std::int64_t> end_ns(rec != nullptr ? shards : 0, 0);
  const auto run_group = [&](std::size_t gidx,
                             const std::function<std::size_t()>& drain) {
    // The counter read brackets exactly the group's chunks, on the thread
    // that runs them — perf fds measure the calling thread, so the deltas
    // are this group's own cycles/misses, not the pool's.
    const obs::prof::hw_reading p0 =
        prf != nullptr ? prf->begin() : obs::prof::hw_reading{};
    if (rec == nullptr) {
      drain();
      if (prf != nullptr) {
        prf->complete(labels.span, static_cast<std::int32_t>(gidx),
                      probe_.cell, p0);
      }
      return;
    }
    const std::int64_t t0 = rec->now();
    const std::size_t items = drain();
    const std::int64_t t1 = rec->now();
    if (prf != nullptr) {
      prf->complete(labels.span, static_cast<std::int32_t>(gidx), probe_.cell,
                    p0);
    }
    rec->complete(labels.span, t0, t1 - t0, static_cast<std::int32_t>(gidx),
                  probe_.cell, static_cast<std::int64_t>(items));
    end_ns[gidx] = t1;
  };
  // Chunk boundaries are a pure function of `total` (never the shard
  // count), so which group claims a chunk can vary run to run while the
  // computed bits cannot. Each chunk is claimed exactly once, so a reduce
  // part indexed by chunk has a single writer and folds in a fixed order.
  claim_chunks(*shard_, total, phase_chunk_items, slice, run_group);

  if (rec != nullptr) {
    const std::int64_t barrier_done = rec->now();
    for (std::size_t s = 0; s < shards; ++s) {
      const std::int64_t wait = barrier_done - end_ns[s];
      rec->complete(labels.barrier, end_ns[s], wait,
                    static_cast<std::int32_t>(s), probe_.cell);
      if (met != nullptr) {
        met->add_barrier_wait(static_cast<std::uint64_t>(wait));
      }
    }
  }
  if (met != nullptr) met->count_phase(labels.edge_items, total);
}

sharded_stepper::phase_span::phase_span(const sharded_stepper& st,
                                        phase_kind kind,
                                        std::size_t items) noexcept
    : st_(st), kind_(kind), items_(items) {
  if (st_.probe_.prf != nullptr) prof_start_ = st_.probe_.prf->begin();
  if (st_.probe_.rec != nullptr) start_ns_ = st_.probe_.rec->now();
}

sharded_stepper::phase_span::~phase_span() {
  const phase_labels& labels = labels_of(static_cast<int>(kind_));
  if (obs::recorder* rec = st_.probe_.rec; rec != nullptr) {
    rec->complete(labels.span, start_ns_, rec->now() - start_ns_,
                  /*shard=*/0, st_.probe_.cell,
                  static_cast<std::int64_t>(items_));
  }
  if (obs::prof::profiler* prf = st_.probe_.prf; prf != nullptr) {
    prf->complete(labels.span, /*shard=*/0, st_.probe_.cell, prof_start_);
  }
  if (obs::metrics* met = st_.probe_.met; met != nullptr) {
    met->count_phase(labels.edge_items, items_);
  }
}

void sharded_stepper::add_tokens_moved(std::uint64_t n) const noexcept {
  if (probe_.met != nullptr && n > 0) probe_.met->add_tokens_moved(n);
}

void sharded_stepper::edge_phase(
    const std::function<void(const edge_slice&)>& body) const {
  if (shard_ == nullptr) {
    const edge_id m = shard_topology().num_edges();
    const phase_span span(*this, phase_kind::edge,
                          static_cast<std::size_t>(m));
    body(edge_slice(0, m, nullptr));
    return;
  }
  const edge_id* order = shard_->plan.edge_order();
  for_each_slice(phase_kind::edge,
                 [&](std::size_t, std::size_t lo, std::size_t hi) {
                   body(edge_slice(static_cast<edge_id>(lo),
                                   static_cast<edge_id>(hi), order));
                 });
}

void sharded_stepper::node_phase(
    const std::function<void(node_id, node_id)>& body) const {
  if (shard_ == nullptr) {
    const node_id n = shard_topology().num_nodes();
    const phase_span span(*this, phase_kind::node,
                          static_cast<std::size_t>(n));
    body(0, n);
    return;
  }
  for_each_slice(phase_kind::node,
                 [&](std::size_t, std::size_t lo, std::size_t hi) {
                   body(static_cast<node_id>(lo), static_cast<node_id>(hi));
                 });
}

real_t sharded_max_min_discrepancy(const shardable& sh) {
  const std::shared_ptr<const shard_context> ctx = sh.sharding();
  DLB_EXPECTS(ctx != nullptr);
  using extrema = std::pair<real_t, real_t>;  // (min, max)
  const extrema span = fold_chunks(
      *ctx, static_cast<std::size_t>(ctx->plan.num_nodes()),
      phase_chunk_items, extrema{1e300, -1e300},
      [&](std::size_t lo, std::size_t hi) {
        extrema part{1e300, -1e300};
        sh.real_load_extrema(static_cast<node_id>(lo),
                             static_cast<node_id>(hi), part.first,
                             part.second);
        return part;
      },
      [](const extrema& acc, const extrema& part) {
        return extrema{std::min(acc.first, part.first),
                       std::max(acc.second, part.second)};
      });
  return span.second - span.first;
}

void per_speed_extrema(const std::vector<weight_t>& loads,
                       const std::vector<weight_t>& speeds, node_id begin,
                       node_id end, real_t& lo, real_t& hi) {
  for (node_id i = begin; i < end; ++i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    const real_t per_speed =
        static_cast<real_t>(loads[idx]) / static_cast<real_t>(speeds[idx]);
    lo = std::min(lo, per_speed);
    hi = std::max(hi, per_speed);
  }
}

weight_t signed_edge_inflow(const graph& g,
                            const std::vector<weight_t>& edge_sent,
                            node_id i) {
  weight_t delta = 0;
  for (const incidence& inc : g.neighbors(i)) {
    const weight_t sent = edge_sent[static_cast<std::size_t>(inc.edge)];
    delta += inc.neighbor > i ? -sent : sent;
  }
  return delta;
}

real_t blocked_sum(const std::vector<real_t>& x) {
  const std::size_t blocks = (x.size() + sum_block - 1) / sum_block;
  real_t acc = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    acc += sum_range(x, b * sum_block,
                     std::min(x.size(), (b + 1) * sum_block));
  }
  return acc;
}

real_t blocked_sum(const std::vector<real_t>& x, const shard_context& ctx) {
  // The sum blocks are the chunk grid, so the grouping is the sequential
  // overload's exactly: partial sums per block, added in block order.
  return fold_chunks(
      ctx, x.size(), sum_block, real_t{0},
      [&](std::size_t lo, std::size_t hi) { return sum_range(x, lo, hi); },
      [](real_t acc, real_t part) { return acc + part; });
}

}  // namespace dlb
