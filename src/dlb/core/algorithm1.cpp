#include "dlb/core/algorithm1.hpp"

#include <cmath>
#include <limits>
#include <utility>

namespace dlb {

namespace {

const graph& checked_topology(const continuous_process* p) {
  DLB_EXPECTS(p != nullptr);
  return p->topology();
}

}  // namespace

algorithm1::algorithm1(std::unique_ptr<continuous_process> process,
                       task_assignment initial, algorithm1_config config)
    : process_(std::move(process)),
      tasks_(std::move(initial)),
      config_(config),
      ledger_(checked_topology(process_.get())) {
  DLB_EXPECTS(tasks_.num_nodes() == process_->topology().num_nodes());
  wmax_ = config_.wmax_override > 0 ? config_.wmax_override
                                    : tasks_.max_task_weight();
  DLB_EXPECTS(wmax_ >= tasks_.max_task_weight());

  // Start the internal continuous simulation from the same load vector
  // (x^A(0) = x^D(0)); paper footnote 1.
  loads_ = tasks_.loads();
  std::vector<real_t> x0(loads_.size());
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    x0[i] = static_cast<real_t>(loads_[i]);
  }
  process_->reset(std::move(x0));
  const std::size_t m =
      static_cast<size_t>(process_->topology().num_edges());
  last_sent_.assign(m, 0);
  deficit_.assign(m, 0.0);
  outbox_.resize(m);
}

void algorithm1::inject_tokens(node_id i, weight_t count) {
  DLB_EXPECTS(count >= 0);
  if (count == 0) return;
  tasks_.pool(i).add_real(1, i, count);
  loads_[static_cast<size_t>(i)] += count;
  // One unit at a time: adding 1.0 `count` times is not bit-equal to adding
  // `count` once, and the continuous copy must see the arrivals' old bits.
  for (weight_t k = 0; k < count; ++k) process_->inject_load(i, 1.0);
}

void algorithm1::inject_task(node_id i, weight_t w) {
  DLB_EXPECTS(w >= 1 && w <= wmax_);
  tasks_.pool(i).add_real(w, i);
  loads_[static_cast<size_t>(i)] += w;
  process_->inject_load(i, static_cast<real_t>(w));
}

weight_t algorithm1::drain_tokens(node_id i, weight_t count) {
  DLB_EXPECTS(count >= 0);
  const weight_t drained = tasks_.pool(i).drain_real_units(count);
  loads_[static_cast<size_t>(i)] -= drained;
  process_->inject_load(i, -static_cast<real_t>(drained));
  return drained;
}

// Phase 1 (per edge): flow deficit ŷ_{u,v}(t) = f^A(t) - f^D(t-1), oriented
// u→v, with near-integer values snapped to kill float dust. Also resets the
// edge's last-sent record for this round. Reads only pre-round state, so
// any edge partition computes identical bits.
void algorithm1::deficit_phase(const edge_slice& es) {
  es.for_each([&](edge_id e) {
    real_t deficit = process_->cumulative_flow(e) -
                     static_cast<real_t>(ledger_.forward(e));
    const real_t snapped = std::round(deficit);
    if (std::abs(deficit - snapped) < flow_epsilon) deficit = snapped;
    deficit_[static_cast<size_t>(e)] = deficit;
    last_sent_[static_cast<size_t>(e)] = 0;
  });
}

// Phase 2 (per node): each node allocates tasks to the transfer sets of the
// edges on which it is the sender — the deficit points away from it — in
// ascending edge-id order. Only the direction with positive deficit sends
// (Observation 4's argument); the node's pool shrinks as its edges are
// processed, so tasks committed to one edge are unavailable to the next
// ("unallocated tasks"). Exactly one endpoint of an edge is its sender, so
// the per-edge writes (outbox, ledger, last_sent) have a single writer, and
// a node's pool evolves exactly as under the sequential global edge loop.
//
// The paper's loop adds one task at a time while ŷ - |S| >= w_max (floor
// semantics; see header note), drawing dummies only from an empty pool.
// Here the pool offers whole runs, and `take` says how many tasks of a run
// that loop would add: a closed-form estimate, then a fix-up that
// re-evaluates the loop's own double expression at the boundary, so float
// edges land exactly where the one-at-a-time loop lands.
weight_t algorithm1::send_phase(node_id i0, node_id i1) {
  const graph& g = process_->topology();
  const real_t floor_at = static_cast<real_t>(wmax_) - flow_epsilon;
  weight_t dummies_minted = 0;
  for (node_id i = i0; i < i1; ++i) {
    task_pool& pool = tasks_.pool(i);
    for (const incidence& inc : g.neighbors(i)) {
      const edge_id e = inc.edge;
      const real_t deficit = deficit_[static_cast<size_t>(e)];
      // Endpoints are normalized u < v: i is the edge's u iff the neighbor
      // is larger. Positive deficit sends u→v, negative sends v→u.
      const bool is_u = inc.neighbor > i;
      real_t amount = 0;
      if (deficit > 0 && is_u) {
        amount = deficit;
      } else if (deficit < 0 && !is_u) {
        amount = -deficit;
      } else {
        continue;
      }

      // The loop condition with |S| = `total`; monotone in `total`.
      const auto adds_more = [&](weight_t total) {
        return amount - static_cast<real_t>(total) >= floor_at;
      };
      if (!adds_more(0)) continue;  // the loop would not run: nothing sent
      task_transfer& set = outbox_[static_cast<size_t>(e)];
      set.clear();
      // How many of `cap` further tasks of weight w the loop adds.
      const auto take = [&](weight_t w, weight_t cap) -> weight_t {
        const real_t room =
            (amount - floor_at - static_cast<real_t>(set.total)) /
            static_cast<real_t>(w);
        weight_t k = 0;
        if (room >= static_cast<real_t>(cap)) {
          k = cap;
        } else if (room >= 0) {
          k = static_cast<weight_t>(room) + 1;
        }
        // ±1 fix-up: where rounding puts the estimate one off the loop.
        if (k > 0 && !adds_more(set.total + (k - 1) * w)) {
          --k;
        } else if (k < cap && adds_more(set.total + k * w)) {
          ++k;
        }
        DLB_ASSERT((k == 0 || adds_more(set.total + (k - 1) * w)) &&
                   (k == cap || !adds_more(set.total + k * w)));
        return k;
      };
      pool.move_into(set, config_.removal, take);
      if (pool.empty()) {
        const weight_t minted =
            take(1, std::numeric_limits<weight_t>::max() - set.total);
        set.dummies += minted;
        set.total += minted;
        dummies_minted += minted;
      }
      ledger_.record(e, i, set.total);
      last_sent_[static_cast<size_t>(e)] = is_u ? set.total : -set.total;
    }
  }
  return dummies_minted;
}

// Phase 3 (per node): each node drains its inbound transfer sets in
// ascending edge-id order — the same order the sequential delivery loop
// pushes into its pool, so the pool's LIFO state is preserved exactly —
// then refreshes its cached load. Tasks received this round cannot be
// re-sent this round (delivery is synchronous, after every send).
void algorithm1::receive_phase(node_id i0, node_id i1) {
  const graph& g = process_->topology();
  weight_t moved = 0;  // weight delivered to this slice's nodes (obs only)
  for (node_id i = i0; i < i1; ++i) {
    task_pool& dest = tasks_.pool(i);
    for (const incidence& inc : g.neighbors(i)) {
      // Something crossed the edge this round iff last_sent is nonzero;
      // its sign says which way (positive = u→v, and i is u iff the
      // neighbour is larger).
      const weight_t sent = last_sent_[static_cast<size_t>(inc.edge)];
      if (sent == 0 || (sent > 0) == (inc.neighbor > i)) continue;
      dest.receive(outbox_[static_cast<size_t>(inc.edge)]);
      moved += sent > 0 ? sent : -sent;
    }
    loads_[static_cast<size_t>(i)] = dest.total_weight();
  }
  add_tokens_moved(static_cast<std::uint64_t>(moved));
}

void algorithm1::step() {
  // Advance the continuous reference to round t, making f^A_{i,j}(t) known
  // (itself sharded when sharding is enabled).
  process_->step();

  edge_phase([&](const edge_slice& es) { deficit_phase(es); });
  dummy_created_ += node_phase_reduce<weight_t>(
      0, [&](node_id i0, node_id i1) { return send_phase(i0, i1); },
      [](weight_t a, weight_t b) { return a + b; });
  node_phase([&](node_id i0, node_id i1) { receive_phase(i0, i1); });

  ++t_;
}

void algorithm1::on_sharding_enabled(
    const std::shared_ptr<const shard_context>& ctx) {
  try_enable_sharding(*process_, ctx);
}

void algorithm1::on_probe_attached(const obs::probe& pb) {
  // The internal continuous reference steps inside this cell too — its
  // phase spans belong to the same probe.
  try_attach_probe(*process_, pb);
}

void algorithm1::save_state(snapshot::writer& w) const {
  const graph& g = process_->topology();
  w.section("algorithm1");
  w.u64(static_cast<std::uint64_t>(g.num_nodes()));
  w.u64(static_cast<std::uint64_t>(g.num_edges()));
  w.u64(static_cast<std::uint64_t>(wmax_));
  w.i64(t_);
  w.i64(dummy_created_);
  w.vec_int(loads_);
  w.vec_int(last_sent_);
  ledger_.save_state(w);
  tasks_.save_state(w);
  snapshot::require_checkpointable(*process_, "algorithm1's continuous process")
      .save_state(w);
}

void algorithm1::restore_state(snapshot::reader& r) {
  const graph& g = process_->topology();
  r.expect_section("algorithm1");
  r.expect_u64(static_cast<std::uint64_t>(g.num_nodes()), "node count");
  r.expect_u64(static_cast<std::uint64_t>(g.num_edges()), "edge count");
  r.expect_u64(static_cast<std::uint64_t>(wmax_), "w_max");
  t_ = r.i64();
  dummy_created_ = r.i64();
  std::vector<weight_t> loads = r.vec_int<weight_t>();
  std::vector<weight_t> sent = r.vec_int<weight_t>();
  DLB_EXPECTS(t_ >= 0 && dummy_created_ >= 0);
  DLB_EXPECTS(static_cast<node_id>(loads.size()) == g.num_nodes());
  DLB_EXPECTS(static_cast<edge_id>(sent.size()) == g.num_edges());
  loads_ = std::move(loads);
  last_sent_ = std::move(sent);
  ledger_.restore_state(r);
  tasks_.restore_state(r);
  snapshot::require_checkpointable(*process_, "algorithm1's continuous process")
      .restore_state(r);
}

void algorithm1::real_load_extrema(node_id begin, node_id end, real_t& lo,
                                   real_t& hi) const {
  const speed_vector& s = process_->speeds();
  tasks_.real_load_extrema(begin, end, s, lo, hi);
}

}  // namespace dlb
