#include "dlb/core/engine.hpp"

#include <algorithm>
#include <cmath>

#include "dlb/common/contracts.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/obs/metrics.hpp"
#include "dlb/obs/recorder.hpp"

namespace dlb {

real_t round_discrepancy(const discrete_process& d) {
  if (const auto* sh = dynamic_cast<const shardable*>(&d);
      sh != nullptr && sh->sharding() != nullptr) {
    return sharded_max_min_discrepancy(*sh);
  }
  return max_min_discrepancy(d.real_loads(), d.speeds());
}

namespace {

std::shared_ptr<const shard_context> sharding_of(
    const continuous_process& a) {
  const auto* sh = dynamic_cast<const shardable*>(&a);
  return sh != nullptr ? sh->sharding() : nullptr;
}

// Total speed — an integer sum, so any grouping (sequential or per chunk)
// is exact. Invariant across a run; measure_balancing_time computes it once
// instead of per probe round.
weight_t total_speed_of(const speed_vector& s, const shard_context* ctx) {
  const auto sum = [&s](std::size_t lo, std::size_t hi) {
    weight_t acc = 0;
    for (std::size_t i = lo; i < hi; ++i) acc += s[i];
    return acc;
  };
  if (ctx == nullptr) return sum(0, s.size());
  return fold_chunks(*ctx, s.size(), phase_chunk_items, weight_t{0}, sum,
                     [](weight_t acc, weight_t part) { return acc + part; });
}

// The T^A membership test, chunk-parallel when a context is given — what
// makes million-node *static* probes feasible: the O(n) load sum and the
// O(n) per-node check both spread over the shard pool. Bit-equal to the
// sequential path by construction: the sum goes through blocked_sum (whose
// grouping depends only on n, never the shard count) and the check folds
// with boolean AND — both order-independent.
bool balanced_against(const continuous_process& a, weight_t total_speed,
                      real_t tol, const shard_context* ctx) {
  const std::vector<real_t>& x = a.loads();
  const speed_vector& s = a.speeds();
  const real_t w = ctx == nullptr ? blocked_sum(x) : blocked_sum(x, *ctx);
  const real_t per_speed = w / static_cast<real_t>(total_speed);

  const auto within = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (std::abs(x[i] - per_speed * static_cast<real_t>(s[i])) > tol) {
        return 0;
      }
    }
    return 1;
  };
  if (ctx == nullptr) return within(0, x.size()) != 0;
  return fold_chunks(*ctx, x.size(), phase_chunk_items, 1, within,
                     [](int acc, int part) { return acc & part; }) != 0;
}

}  // namespace

bool is_balanced(const continuous_process& a, real_t tol) {
  const std::shared_ptr<const shard_context> ctx = sharding_of(a);
  return balanced_against(a, total_speed_of(a.speeds(), ctx.get()), tol,
                          ctx.get());
}

balancing_time_result measure_balancing_time(continuous_process& a,
                                             const std::vector<real_t>& x0,
                                             round_t cap,
                                             const obs::probe& pb) {
  DLB_EXPECTS(cap >= 0);
  a.reset(std::vector<real_t>(x0));
  // Speeds never change across the probe loop; sum them once, not per round.
  const std::shared_ptr<const shard_context> ctx = sharding_of(a);
  const weight_t total_speed = total_speed_of(a.speeds(), ctx.get());
  balancing_time_result r;
  const auto balanced = [&] {
    const obs::scoped_span span(pb.rec, "tA_check", -1, pb.cell);
    return balanced_against(a, total_speed, balanced_tolerance, ctx.get());
  };
  while (!balanced()) {
    if (a.rounds_executed() >= cap) {
      r.rounds = cap;
      r.converged = false;
      r.negative_load = a.negative_load_detected();
      return r;
    }
    {
      const obs::scoped_span span(pb.rec, "tA_round", -1, pb.cell);
      a.step();
    }
    if (pb.met != nullptr) pb.met->add_round();
  }
  r.rounds = a.rounds_executed();
  r.converged = true;
  r.negative_load = a.negative_load_detected();
  return r;
}

void run_rounds(discrete_process& d, round_t rounds,
                const round_observer& obs, const obs::probe& pb) {
  DLB_EXPECTS(rounds >= 0);
  for (round_t t = 0; t < rounds; ++t) {
    {
      const obs::scoped_span span(pb.rec, "round", -1, pb.cell);
      d.step();
    }
    if (pb.met != nullptr) pb.met->add_round();
    if (obs) obs(d.rounds_executed(), d);
  }
}

void save_checkpoint(const discrete_process& d, const std::string& path) {
  snapshot::writer w;
  w.section("dlb-process-checkpoint");
  snapshot::require_checkpointable(d, "process").save_state(w);
  w.save_file(path);
}

round_t restore_checkpoint(discrete_process& d, const std::string& path) {
  snapshot::reader r = snapshot::reader::from_file(path);
  r.expect_section("dlb-process-checkpoint");
  snapshot::require_checkpointable(d, "process").restore_state(r);
  return d.rounds_executed();
}

void run_rounds_checkpointed(discrete_process& d, round_t target,
                             const checkpoint_options& ckpt,
                             const round_observer& obs, const obs::probe& pb) {
  DLB_EXPECTS(target >= 0 && !ckpt.path.empty() && ckpt.every >= 0);
  if (ckpt.resume) restore_checkpoint(d, ckpt.path);
  DLB_EXPECTS(d.rounds_executed() <= target);
  round_t since = 0;
  while (d.rounds_executed() < target) {
    run_rounds(d, 1, obs, pb);
    if (ckpt.every > 0 && ++since == ckpt.every) {
      save_checkpoint(d, ckpt.path);
      since = 0;
    }
  }
  save_checkpoint(d, ckpt.path);
}

dynamic_result run_dynamic(discrete_process& d,
                           const workload::arrival_schedule& sched,
                           round_t rounds, const round_observer& obs,
                           const obs::probe& pb) {
  DLB_EXPECTS(rounds >= 1);
  dynamic_result r;
  r.rounds = rounds;
  const round_t warmup = rounds / 2;
  real_t sum = 0;
  round_t samples = 0;
  for (round_t t = 0; t < rounds; ++t) {
    weight_t arrived = 0;
    for (const workload::arrival& a : sched.arrivals(t)) {
      d.inject_tokens(a.node, a.count);
      arrived += a.count;
    }
    r.total_arrived += arrived;
    if (pb.met != nullptr) {
      pb.met->add_arrivals(static_cast<std::uint64_t>(arrived));
    }
    run_rounds(d, 1, obs, pb);
    if (t >= warmup) {
      const real_t disc = round_discrepancy(d);
      sum += disc;
      r.peak_max_min = std::max(r.peak_max_min, disc);
      ++samples;
    }
  }
  r.mean_max_min = samples > 0 ? sum / static_cast<real_t>(samples) : 0;
  // round_discrepancy equals the real_loads() scan exactly and skips the
  // O(n) vector materialization when the process steps sharded — the same
  // path the per-round samples above take (uniform across run_dynamic,
  // run_async, and run_experiment's probe).
  r.final_max_min = round_discrepancy(d);
  return r;
}

experiment_result run_experiment(discrete_process& d,
                                 const continuous_process& reference_template,
                                 round_t cap,
                                 const round_observer& obs,
                                 const obs::probe& pb) {
  // Balancing time of the continuous reference from the discrete start.
  std::vector<real_t> x0(d.loads().size());
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = static_cast<real_t>(d.loads()[i]);
  }
  auto reference = reference_template.clone_fresh();
  // The T^A probe steps the same topology as `d`; when `d` runs sharded,
  // step the probe over the same shard context too (clone_fresh starts
  // sequential, so the context must be re-attached here). The observability
  // probe re-attaches the same way, so the reference's phases report to the
  // cell that owns this run.
  if (const auto* sh = dynamic_cast<const shardable*>(&d);
      sh != nullptr && sh->sharding() != nullptr) {
    try_enable_sharding(*reference, sh->sharding());
  }
  if (pb.active()) try_attach_probe(*reference, pb);
  const balancing_time_result bt =
      measure_balancing_time(*reference, x0, cap, pb);

  run_rounds(d, bt.rounds, obs, pb);

  experiment_result r;
  r.rounds = bt.rounds;
  r.continuous_converged = bt.converged;
  r.continuous_negative_load = bt.negative_load;
  r.final_loads = d.loads();
  r.final_real_loads = d.real_loads();
  r.dummy_created = d.dummy_created();
  r.final_max_min = max_min_discrepancy(r.final_real_loads, d.speeds());
  r.final_max_avg = max_avg_discrepancy(r.final_real_loads, d.speeds());
  return r;
}

}  // namespace dlb
