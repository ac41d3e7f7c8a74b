#include "dlb/events/async_driver.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "dlb/common/contracts.hpp"
#include "dlb/core/metrics.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/obs/metrics.hpp"
#include "dlb/obs/recorder.hpp"

namespace dlb::events {

dynamic_result async_result::dynamics() const {
  dynamic_result r;
  r.rounds = rounds;
  r.total_arrived = total_arrived;
  r.mean_max_min = mean_max_min;
  r.peak_max_min = peak_max_min;
  r.final_max_min = final_max_min;
  return r;
}

namespace {

/// Nearest-rank percentile over a sorted load vector.
weight_t percentile(const std::vector<weight_t>& sorted, double p) {
  DLB_EXPECTS(!sorted.empty());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

constexpr std::string_view async_section = "async_run";

}  // namespace

async_run::async_run(discrete_process& d,
                     std::vector<std::unique_ptr<event_source>> sources,
                     const async_options& opts)
    : d_(&d), sources_(std::move(sources)), opts_(opts) {
  DLB_EXPECTS(opts.rounds >= 1);
  warmup_ = opts.warmup >= 0 ? opts.warmup : opts.rounds / 2;
  horizon_ = static_cast<sim_time>(opts.rounds);
}

void async_run::refill(std::size_t s) {
  // One pending event per live source; an event at or past the horizon can
  // never fire before a round, so its source is dropped for good (infinite
  // streams terminate here).
  if (const std::optional<event> ev = sources_[s]->next();
      ev.has_value() && ev->time < horizon_) {
    queue_.push(*ev, s);
  }
}

void async_run::prime() {
  for (std::size_t s = 0; s < sources_.size(); ++s) refill(s);
  primed_ = true;
}

void async_run::dispatch(const event_queue::entry& e) {
  const obs::span_start start = opts_.probe.rec != nullptr
                                    ? opts_.probe.rec->begin()
                                    : obs::span_start{};
  switch (e.ev.kind) {
    case event_kind::arrival:
      d_->inject_tokens(e.ev.node, e.ev.count);
      total_arrived_ += e.ev.count;
      if (opts_.probe.met != nullptr) {
        opts_.probe.met->add_arrivals(static_cast<std::uint64_t>(e.ev.count));
      }
      break;
    case event_kind::service: {
      service_attempts_ += e.ev.count;
      const weight_t drained = d_->drain_tokens(e.ev.node, e.ev.count);
      tokens_served_ += drained;
      if (opts_.probe.met != nullptr) {
        opts_.probe.met->add_served(static_cast<std::uint64_t>(drained));
      }
      break;
    }
  }
  if (opts_.probe.rec != nullptr) {
    opts_.probe.rec->end(
        e.ev.kind == event_kind::arrival ? "event:arrival" : "event:service",
        start, -1, opts_.probe.cell, static_cast<std::int64_t>(e.ev.count));
  }
  if (opts_.probe.met != nullptr) {
    opts_.probe.met->add_event(queue_.size());
  }
  refill(e.source);
}

bool async_run::advance(const async_budget& budget,
                        const round_observer& obs) {
  DLB_EXPECTS(budget.max_rounds >= 0 && budget.max_wall_ms >= 0);
  // A fresh run pulls its first events here rather than in the constructor,
  // so a restore (which carries the queue and source cursors in the
  // snapshot) never double-consumes the sources.
  if (!primed_) prime();

  // dlb-lint: allow(wall-clock): max_wall_ms only picks the pause point —
  const auto started = std::chrono::steady_clock::now();
  const auto over_wall = [&] {
    if (budget.max_wall_ms <= 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        // dlb-lint: allow(wall-clock): state at any pause resumes byte-exactly
        std::chrono::steady_clock::now() - started);
    return elapsed.count() >= budget.max_wall_ms;
  };

  round_t rounds_done = 0;
  std::uint64_t events_done = 0;
  while (t_ < opts_.rounds) {
    if (budget.max_rounds > 0 && rounds_done >= budget.max_rounds) break;
    if (over_wall()) break;
    const auto round_time = static_cast<sim_time>(t_ + 1);
    // Everything scheduled strictly before this round's tick fires first;
    // an event at exactly an integer time k lands at the start of interval
    // [k, k+1) and affects round k — which is how the lock-step adapter
    // reproduces run_dynamic's "inject at the start of round t".
    while (!queue_.empty() && queue_.top().ev.time < round_time) {
      // Event budgets pause *before* the event that would exceed them; the
      // half-dispatched round is plain state (queue + cursors + process), so
      // a snapshot taken here still resumes bit-exactly.
      if (budget.max_events > 0 && events_done >= budget.max_events) {
        return false;
      }
      if (over_wall()) return false;
      dispatch(queue_.pop());
      ++events_done;
      ++events_;
    }
    {
      const obs::scoped_span span(opts_.probe.rec, "round", -1,
                                  opts_.probe.cell);
      d_->step();
    }
    if (opts_.probe.met != nullptr) opts_.probe.met->add_round();
    if (obs) obs(d_->rounds_executed(), *d_);
    if (t_ >= warmup_) {
      const real_t disc = round_discrepancy(*d_);
      sum_ += disc;
      // The state holds this discrepancy until the next round fires. Rounds
      // are currently unit-spaced, so dt is always 1.0 — but the weighted
      // form (including its own denominator) is kept general so non-unit
      // round spacing cannot silently skew the time average.
      const sim_time dt = static_cast<sim_time>(t_ + 2) - round_time;
      weighted_sum_ += disc * dt;
      weight_total_ += dt;
      peak_max_min_ = std::max(peak_max_min_, disc);
      ++samples_;
    }
    ++t_;
    ++rounds_done;
  }
  return finished();
}

async_result async_run::result() const {
  DLB_EXPECTS(finished());
  async_result r;
  r.rounds = opts_.rounds;
  r.total_arrived = total_arrived_;
  r.service_attempts = service_attempts_;
  r.tokens_served = tokens_served_;
  r.peak_max_min = peak_max_min_;
  r.mean_max_min = samples_ > 0 ? sum_ / static_cast<real_t>(samples_) : 0;
  r.time_weighted_mean_max_min =
      weight_total_ > 0 ? weighted_sum_ / weight_total_ : 0;

  // The loads vector is materialized once for the depth percentiles (which
  // need the sorted distribution anyway); the final discrepancy reuses it
  // when the process steps sequentially and takes the shard-exact reduction
  // otherwise — both equal round_discrepancy's value bit-for-bit.
  std::vector<weight_t> loads = d_->real_loads();
  if (const auto* sh = dynamic_cast<const shardable*>(d_);
      sh != nullptr && sh->sharding() != nullptr) {
    r.final_max_min = sharded_max_min_discrepancy(*sh);
  } else {
    r.final_max_min = max_min_discrepancy(loads, d_->speeds());
  }
  std::sort(loads.begin(), loads.end());
  r.depth_p50 = percentile(loads, 0.50);
  r.depth_p90 = percentile(loads, 0.90);
  r.depth_p99 = percentile(loads, 0.99);
  r.depth_max = loads.back();
  return r;
}

void async_run::save_state(snapshot::writer& w) const {
  w.section(async_section);
  // Config fingerprint: a snapshot only restores into a run built with the
  // same horizon, warm-up and source list.
  w.u64(static_cast<std::uint64_t>(opts_.rounds));
  w.u64(static_cast<std::uint64_t>(warmup_));
  w.u64(sources_.size());
  w.u8(primed_ ? 1 : 0);
  w.i64(t_);
  w.u64(events_);
  w.i64(total_arrived_);
  w.i64(service_attempts_);
  w.i64(tokens_served_);
  w.f64(sum_);
  w.f64(weighted_sum_);
  w.f64(weight_total_);
  w.i64(samples_);
  w.f64(peak_max_min_);
  queue_.save_state(w);
  for (const auto& s : sources_) s->save_state(w);
  snapshot::require_checkpointable(*d_, "the async run's process")
      .save_state(w);
}

void async_run::restore_state(snapshot::reader& r) {
  r.expect_section(async_section);
  r.expect_u64(static_cast<std::uint64_t>(opts_.rounds), "async round count");
  r.expect_u64(static_cast<std::uint64_t>(warmup_), "async warm-up");
  r.expect_u64(sources_.size(), "async source count");
  primed_ = r.u8() != 0;
  t_ = r.i64();
  events_ = r.u64();
  total_arrived_ = r.i64();
  service_attempts_ = r.i64();
  tokens_served_ = r.i64();
  sum_ = r.f64();
  weighted_sum_ = r.f64();
  weight_total_ = r.f64();
  samples_ = r.i64();
  peak_max_min_ = r.f64();
  DLB_EXPECTS(t_ >= 0 && t_ <= opts_.rounds && samples_ >= 0);
  queue_.restore_state(r);
  for (const auto& s : sources_) s->restore_state(r);
  snapshot::require_checkpointable(*d_, "the async run's process")
      .restore_state(r);
}

async_result run_async(discrete_process& d,
                       std::vector<std::unique_ptr<event_source>> sources,
                       const async_options& opts, const round_observer& obs) {
  async_run run(d, std::move(sources), opts);
  run.advance({}, obs);
  return run.result();
}

async_result run_async_checkpointed(
    discrete_process& d, std::vector<std::unique_ptr<event_source>> sources,
    const async_options& opts, const checkpoint_options& ckpt,
    const round_observer& obs) {
  DLB_EXPECTS(!ckpt.path.empty() && ckpt.every >= 0);
  async_run run(d, std::move(sources), opts);
  if (ckpt.resume) {
    snapshot::reader r = snapshot::reader::from_file(ckpt.path);
    r.expect_section("dlb-async-checkpoint");
    run.restore_state(r);
  }
  const auto save = [&] {
    snapshot::writer w;
    w.section("dlb-async-checkpoint");
    run.save_state(w);
    w.save_file(ckpt.path);
  };
  const round_t stride = ckpt.every > 0 ? ckpt.every : opts.rounds;
  while (!run.advance({.max_rounds = stride}, obs)) save();
  save();
  return run.result();
}

}  // namespace dlb::events
