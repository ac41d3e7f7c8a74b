// dlb_run — list and execute the named experiment grids of dlb::runtime.
// docs/REPRODUCING.md maps every paper table/figure to its invocation.
//
// Usage:
//   dlb_run --list
//   dlb_run --grid table1 [--threads N] [--master-seed S] [--n 128]
//           [--repeats 5] [--out results.json] [--table]
//
//   --grid        grid name (see --list); comma-separate to run several
//   --threads     worker threads (default: hardware concurrency)
//   --shard-threads  threads stepping a single graph's shards (default 1;
//                 every engine-driven grid honours it — rows are
//                 byte-identical for any value). Each phase is cut into
//                 fixed-size chunks that the shard threads claim from a
//                 shared cursor. Both thread flags take whole integers
//                 >= 1; anything else exits 2. A comma list (e.g. 1,8)
//                 runs every selected grid once per value, suffixing the
//                 grid name with -s<k> — the twin-batch form the
//                 parallel-efficiency regression gate compares
//                 (bench/check_regression.py). Incompatible with
//                 --checkpoint/--resume
//   --cost-baseline  JSON rows file (e.g. bench/baselines/
//                 perf_baseline.json) whose measured per-cell wall_ns seed
//                 the scheduler's cost estimates; unknown cells keep the
//                 analytic guess. Pure scheduling — output unchanged
//   --stream      write rows as cells finish (cell order preserved, bytes
//                 identical to the buffered path) instead of holding the
//                 whole grid in memory; incompatible with --table
//   --master-seed master seed pinning topology + every cell RNG (default 1)
//   --n           approximate node count per graph case (default 128)
//   --repeats     repetitions for randomized competitors (default 5)
//   --spike-per-node   initial spike weight per node (default 50)
//   --dynamic-rounds / --arrivals-per-round   dynamic grids only
//   --burst-size / --burst-period             dynamic-bursts only
//   --arrival-rate / --service-rate   async (event-driven) grids: Poisson
//                 arrivals / service completions per unit of virtual time
//   --replay-trace  async grids: replay `(time, node, count)` events from
//                 this file as an extra source
//   --trace       write a Chrome/Perfetto trace-event JSON of the run to
//                 this path (load in ui.perfetto.dev), plus a per-cell
//                 metrics sidecar at <path>.metrics.json. Observation only:
//                 stdout rows are byte-identical with or without it
//   --obs-summary print a human span/shard-skew/pool-utilization summary to
//                 stderr after the grids finish (tools/summarize_trace.py is
//                 the offline equivalent over a --trace file)
//   --obs-summary-top  how many of the busiest worker tids the summary's
//                 pool-utilization line names individually (default 8; the
//                 rest fold into an explicit "+N more" aggregate)
//   --obs-profile record hardware-counter deltas (cycles, instructions,
//                 cache refs/misses, branch misses) on every span, fold the
//                 per-shard spans into a skew report (stderr table), and
//                 write the "dlb-profile-v2" JSON sidecar. Falls back to
//                 wall-clock-only spans where perf_event_open is
//                 unavailable (one stderr notice). Observation only:
//                 stdout rows stay byte-identical
//   --obs-profile-out  profile sidecar path (default dlb_profile.json;
//                 implies --obs-profile)
//   --obs-extras  append the deterministic obs counters (obs_tokens_moved,
//                 obs_edges_touched, ...) to every row's extras
//   --checkpoint  persist every finished cell's row to this file (atomic
//                 tmp+rename saves; see --checkpoint-every). A killed run
//                 relaunched with --resume recomputes only unfinished cells
//                 and emits byte-identical output to an uninterrupted run
//   --checkpoint-every  save the checkpoint after this many freshly
//                 completed cells (default 1 = after every cell)
//   --resume      load a --checkpoint file before running (missing file =
//                 cold start). The file's settings fingerprint must match
//                 this invocation's row-affecting flags; execution-only
//                 knobs (--threads, --shard-threads, --format) may differ
//                 freely. Incompatible with --stream
//   --format      stdout/--out serialization: json (default) or csv —
//                 same row schema, same determinism guarantees
//   --out         also write results (with real wall_ns timing) to this file
//   --table       render each grid's ascii pivot to stderr; the shape is
//                 per-grid (discrepancy, steady-state mean, balancing time,
//                 or the study grids' extra-metric columns)
//
// stdout carries the results (JSON array by default, CSV with --format csv)
// with wall_ns masked to 0, so the bytes are identical for any --threads
// value: grid cells derive their RNG streams from (master seed, cell index),
// never from scheduling. Use --out for the timing-bearing variant.
#include <charconv>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dlb/analysis/args.hpp"
#include "dlb/analysis/table.hpp"
#include "dlb/obs/export.hpp"
#include "dlb/obs/prof.hpp"
#include "dlb/obs/recorder.hpp"
#include "dlb/runtime/grid_checkpoint.hpp"
#include "dlb/runtime/grids.hpp"

namespace {

using namespace dlb;

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// A thread count: a whole-token decimal integer >= 1. "-1", "8x", "0" and
// out-of-range text are nullopt, so a typo can never wrap into a huge pool.
std::optional<unsigned> parse_thread_count(const std::string& text) {
  unsigned v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < 1) return std::nullopt;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const analysis::arg_map args(argc, argv);

    if (args.has("list")) {
      for (const auto& info : runtime::list_grids()) {
        std::cout << info.name << "\t" << info.description << "\n";
      }
      return 0;
    }

    const std::string grid_arg = args.get("grid", "");
    runtime::grid_options opts;
    opts.target_n = static_cast<node_id>(args.get_int("n", opts.target_n));
    opts.repeats = static_cast<int>(args.get_int("repeats", opts.repeats));
    opts.spike_per_node =
        args.get_int("spike-per-node", opts.spike_per_node);
    opts.dynamic_rounds =
        args.get_int("dynamic-rounds", opts.dynamic_rounds);
    opts.arrivals_per_round =
        args.get_int("arrivals-per-round", opts.arrivals_per_round);
    opts.burst_size = args.get_int("burst-size", opts.burst_size);
    opts.burst_period = args.get_int("burst-period", opts.burst_period);
    opts.arrival_rate = args.get_real("arrival-rate", opts.arrival_rate);
    opts.service_rate = args.get_real("service-rate", opts.service_rate);
    opts.trace_path = args.get("replay-trace", opts.trace_path);
    // --shard-threads accepts a comma list: each value runs every selected
    // grid once, with the grid name suffixed -s<k> when more than one value
    // is given (single values keep the plain name — the common case and the
    // historical output bytes).
    std::vector<unsigned> shard_thread_list;
    for (const std::string& item :
         split_csv(args.get("shard-threads", "1"))) {
      const std::optional<unsigned> k = parse_thread_count(item);
      if (!k) {
        std::cerr << "--shard-threads values must be integers >= 1, got '"
                  << item << "'\n";
        return 2;
      }
      shard_thread_list.push_back(*k);
    }
    if (shard_thread_list.empty()) shard_thread_list.push_back(1);
    const std::string cost_baseline = args.get("cost-baseline", "");
    const std::string trace_out = args.get("trace", "");
    const bool obs_summary = args.has("obs-summary");
    const std::int64_t summary_top = args.get_int("obs-summary-top", 8);
    const bool obs_profile =
        args.has("obs-profile") || args.has("obs-profile-out");
    const std::string profile_out =
        args.get("obs-profile-out", "dlb_profile.json");
    const bool obs_extras = args.has("obs-extras");
    const bool stream = args.has("stream");
    const auto master_seed =
        static_cast<std::uint64_t>(args.get_int("master-seed", 1));
    const std::string threads_arg = args.get(
        "threads", std::to_string(runtime::thread_pool::default_threads()));
    const std::optional<unsigned> parsed_threads =
        parse_thread_count(threads_arg);
    if (!parsed_threads) {
      std::cerr << "--threads must be an integer >= 1, got '" << threads_arg
                << "'\n";
      return 2;
    }
    const unsigned threads = *parsed_threads;
    const std::string out_path = args.get("out", "");
    const runtime::sink_format format =
        runtime::parse_format(args.get("format", "json"));
    const bool want_table = args.has("table");
    const std::string resume_path = args.get("resume", "");
    // --resume without --checkpoint keeps saving into the resumed file.
    const std::string ckpt_path = args.get("checkpoint", resume_path);
    const std::int64_t ckpt_every = args.get_int("checkpoint-every", 1);

    for (const std::string& key : args.unused_keys()) {
      std::cerr << "unknown argument: " << key << "\n";
      return 2;
    }
    if (grid_arg.empty()) {
      std::cerr << "no grid selected; try `dlb_run --list` or "
                   "`dlb_run --grid table1`\n";
      return 2;
    }
    if (stream && want_table) {
      std::cerr << "--stream does not hold rows, so it cannot render "
                   "--table; drop one of the two\n";
      return 2;
    }
    if (stream && !ckpt_path.empty()) {
      std::cerr << "--checkpoint/--resume buffer rows per grid, which "
                   "--stream exists to avoid; drop one of the two\n";
      return 2;
    }
    if (ckpt_every < 1) {
      std::cerr << "--checkpoint-every must be >= 1\n";
      return 2;
    }
    if (ckpt_path.empty() && args.has("checkpoint-every")) {
      std::cerr << "--checkpoint-every needs --checkpoint or --resume\n";
      return 2;
    }
    if (summary_top < 1) {
      std::cerr << "--obs-summary-top must be >= 1\n";
      return 2;
    }
    if (args.has("obs-summary-top") && !obs_summary) {
      std::cerr << "--obs-summary-top needs --obs-summary\n";
      return 2;
    }
    if (shard_thread_list.size() > 1 && !ckpt_path.empty()) {
      std::cerr << "--shard-threads with several values renames grids "
                   "(-s<k> suffixes), which the checkpoint fingerprint "
                   "cannot track; run the values separately\n";
      return 2;
    }

    std::shared_ptr<const runtime::cost_model> hints;
    if (!cost_baseline.empty()) {
      hints = std::make_shared<const runtime::cost_model>(
          runtime::cost_model::from_file(cost_baseline));
      std::cerr << "cost baseline: " << hints->size()
                << " measured (grid, scenario, process) keys from "
                << cost_baseline << "\n";
    }

    // One recorder per run: the cell pool, every cell's shard pool, and
    // every engine driver report into it; exporters read it after the pool
    // is idle. --obs-summary alone still records (it only skips the file).
    // --obs-profile turns its counters on: the skew analyzer folds the
    // spans' counter deltas, cell registry and barrier spans.
    std::unique_ptr<obs::recorder> recorder;
    if (!trace_out.empty() || obs_summary || obs_profile) {
      recorder = std::make_unique<obs::recorder>(
          obs_profile ? obs::recorder::counters::on
                      : obs::recorder::counters::off);
    }

    // Build every grid spec up front: an unknown grid name or bad config
    // must fail *before* outputs are touched — opening --out truncates it,
    // and a begun stream has already emitted its framing.
    std::vector<runtime::grid_spec> specs;
    for (const std::string& name : split_csv(grid_arg)) {
      for (const unsigned shard_threads : shard_thread_list) {
        opts.shard_threads = shard_threads;
        specs.push_back(runtime::make_named_grid(name, opts, master_seed));
        if (shard_thread_list.size() > 1) {
          specs.back().name += "-s" + std::to_string(shard_threads);
        }
        specs.back().cost_hints = hints;
        specs.back().recorder = recorder.get();
        specs.back().obs_extras = obs_extras;
      }
    }

    // Checkpoint fingerprint: every flag that affects row bytes, and none
    // that are pure execution strategy (--threads, --shard-threads,
    // --format) — resuming across those is the point.
    std::optional<runtime::grid_checkpoint> ckpt;
    if (!ckpt_path.empty()) {
      std::ostringstream fp;
      fp << "grids=" << grid_arg << ";master-seed=" << master_seed
         << ";n=" << opts.target_n << ";repeats=" << opts.repeats
         << ";spike=" << opts.spike_per_node
         << ";dynamic-rounds=" << opts.dynamic_rounds
         << ";arrivals-per-round=" << opts.arrivals_per_round
         << ";burst-size=" << opts.burst_size
         << ";burst-period=" << opts.burst_period
         << ";arrival-rate=" << opts.arrival_rate
         << ";service-rate=" << opts.service_rate
         << ";replay-trace=" << opts.trace_path
         << ";obs-extras=" << (obs_extras ? 1 : 0);
      ckpt = resume_path.empty()
                 ? runtime::grid_checkpoint(fp.str())
                 : runtime::grid_checkpoint::load_or_empty(resume_path,
                                                           fp.str());
      if (!resume_path.empty()) {
        std::cerr << "resume: " << ckpt->size() << " completed cells loaded "
                  << "from " << resume_path << "\n";
      }
    }

    runtime::thread_pool pool(threads);
    if (recorder != nullptr) pool.set_recorder(recorder.get());
    // --out opens lazily: streaming must write as rows arrive, but the
    // buffered path opens (and truncates) only after every grid succeeded,
    // so a mid-run failure leaves a previous results file intact.
    std::ofstream out_file;
    const auto open_out = [&]() {
      out_file.open(out_path);
      if (!out_file) std::cerr << "cannot open " << out_path << "\n";
      return out_file.is_open();
    };

    // Streaming mode: rows leave for stdout (and --out) the moment every
    // earlier cell has finished — the grid is never materialized.
    runtime::row_writer stdout_writer(std::cout, format,
                                      runtime::timing::exclude);
    runtime::row_writer file_writer(out_file, format,
                                    runtime::timing::include);
    std::uint64_t streamed = 0;
    if (stream) {
      if (!out_path.empty() && !open_out()) return 1;
      stdout_writer.begin();
      if (out_file.is_open()) file_writer.begin();
    }

    std::vector<runtime::result_row> all_rows;
    for (const runtime::grid_spec& spec : specs) {
      std::cerr << "running grid '" << spec.name << "' ("
                << runtime::expand_grid(spec, master_seed).size()
                << " cells, " << threads << " threads";
      if (spec.shard_threads > 1) {
        std::cerr << ", " << spec.shard_threads << " shard threads";
      }
      std::cerr << ")\n";
      if (stream) {
        streamed += runtime::run_grid_streaming(
            spec, master_seed, pool, [&](const runtime::result_row& row) {
              stdout_writer.row(row);
              if (out_file.is_open()) file_writer.row(row);
            });
        continue;
      }
      auto rows =
          ckpt.has_value()
              ? runtime::run_grid_checkpointed(
                    spec, master_seed, pool, *ckpt, ckpt_path,
                    static_cast<std::uint64_t>(ckpt_every))
              : runtime::run_grid(spec, master_seed, pool);
      if (want_table) {
        std::cerr << "\n" << spec.description << "\n";
        runtime::render_view(spec, rows).print(std::cerr);
      }
      all_rows.insert(all_rows.end(),
                      std::make_move_iterator(rows.begin()),
                      std::make_move_iterator(rows.end()));
    }

    // Trace export + summary after every grid finished and the pools are
    // idle (the recorder's read-side contract). The rows above are already
    // out (or about to be written from memory) — obs output goes to its own
    // files and stderr, never into the row streams.
    const auto export_obs = [&]() {
      if (recorder == nullptr) return true;
      if (!trace_out.empty()) {
        std::ofstream trace_file(trace_out);
        if (!trace_file) {
          std::cerr << "cannot open " << trace_out << "\n";
          return false;
        }
        obs::write_chrome_trace(trace_file, *recorder);
        const std::string sidecar_path = trace_out + ".metrics.json";
        std::ofstream sidecar(sidecar_path);
        if (!sidecar) {
          std::cerr << "cannot open " << sidecar_path << "\n";
          return false;
        }
        obs::write_metrics_sidecar(sidecar, *recorder);
        std::cerr << "wrote trace to " << trace_out << " and metrics to "
                  << sidecar_path << "\n";
      }
      if (obs_summary) {
        obs::summary_options sopts;
        sopts.top_tids = static_cast<std::size_t>(summary_top);
        obs::write_summary(std::cerr, *recorder, sopts);
      }
      if (obs_profile) {
        const obs::prof::profile_report report =
            obs::prof::analyze_profile(*recorder);
        std::ofstream profile_file(profile_out);
        if (!profile_file) {
          std::cerr << "cannot open " << profile_out << "\n";
          return false;
        }
        obs::prof::write_profile_json(profile_file, report);
        obs::prof::write_profile_table(std::cerr, report);
        std::cerr << "wrote profile to " << profile_out << "\n";
      }
      return true;
    };

    if (stream) {
      stdout_writer.end();
      if (out_file.is_open()) {
        file_writer.end();
        std::cerr << "wrote " << streamed << " rows to " << out_path << "\n";
      }
      return export_obs() ? 0 : 1;
    }
    runtime::write_rows(std::cout, all_rows, format, runtime::timing::exclude);
    if (!out_path.empty()) {
      if (!open_out()) return 1;
      runtime::write_rows(out_file, all_rows, format,
                          runtime::timing::include);
      std::cerr << "wrote " << all_rows.size() << " rows to " << out_path
                << "\n";
    }
    return export_obs() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
