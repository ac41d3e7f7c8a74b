// dlb_run — list and execute the named experiment grids of dlb::runtime.
// docs/REPRODUCING.md maps every paper table/figure to its invocation.
//
// Usage:
//   dlb_run --list
//   dlb_run --grid table1 [--threads N] [--master-seed S] [--n 128]
//           [--repeats 5] [--out results.json] [--table]
//
//   --grid        grid name (see --list); comma-separate to run several
//                 (an empty item or a name listed twice exits 2)
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
//                 (bench/check_regression.py); with --table, a
//                 scaling-efficiency table (speedup and efficiency of each
//                 -s<k> cell over its -s1 twin) follows the grid views.
//                 A value listed twice exits 2. Incompatible with
//                 --checkpoint/--resume
//   --stream      write rows as cells finish (cell order preserved, bytes
//                 identical to the buffered path) instead of holding the
//                 whole grid in memory; incompatible with --table
//   --master-seed master seed pinning topology + every cell RNG (default 1)
//   --n           approximate node count per graph case (default 128)
//   --repeats     repetitions for randomized competitors (default 5)
//   --spike-per-node   initial spike weight per node (default 50, at most
//                 2^32 so the initial load fits the token count)
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
//
// Buffered, --stream and --checkpoint/--resume runs all execute every grid
// through the one driver, runtime::run_grid, which hands out rows in cell
// order; the modes differ only in where those rows go (straight to the
// writers under --stream, a per-grid vector otherwise).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
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

// Every comma-separated item, empty ones included ("a,,b" has three), so
// the caller can refuse them instead of reading "1,,2" as "1,2".
std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (std::size_t comma; (comma = text.find(',', begin)) != std::string::npos;
       begin = comma + 1) {
    out.push_back(text.substr(begin, comma - begin));
  }
  out.push_back(text.substr(begin));
  return out;
}

// Reads an integer flag into `field` when it lies in [lo, max of the
// field's type]; otherwise prints one line and returns false, so a value is
// never narrowed or wrapped.
template <typename T>
bool read_int(const analysis::arg_map& args, const std::string& key,
              T& field, std::int64_t lo) {
  constexpr std::int64_t hi = std::numeric_limits<T>::max();
  const std::int64_t v = args.get_int(key, field);
  if (v >= lo && v <= hi) {
    field = static_cast<T>(v);
    return true;
  }
  std::cerr << "--" << key << " must be an integer ";
  if (hi == std::numeric_limits<std::int64_t>::max()) {
    std::cerr << ">= " << lo;
  } else {
    std::cerr << "in [" << lo << ", " << hi << "]";
  }
  std::cerr << ", got " << v << "\n";
  return false;
}

// The largest --spike-per-node whose initial load fits weight_t on every
// graph a node_id can count: a cell holds spike·n tokens on node 0 plus
// its degree (< n, unit speeds) everywhere, and 2^32·n + n stays below
// 2^63 for n < 2^31. The workload builder refuses an overflow as well, but
// inside a cell that is after --stream or --out has opened.
constexpr std::int64_t max_spike_per_node = std::int64_t{1} << 32;
static_assert(max_spike_per_node <=
              (std::numeric_limits<weight_t>::max() -
               std::numeric_limits<node_id>::max()) /
                  std::numeric_limits<node_id>::max());

// Reads a real flag into `field` when it is finite and above `lo` (or equal
// to it, when `lo_allowed`); otherwise prints one line and returns false.
bool read_real(const analysis::arg_map& args, const std::string& key,
               double& field, double lo, bool lo_allowed) {
  const double v = args.get_real(key, field);
  if (std::isfinite(v) && (v > lo || (lo_allowed && v == lo))) {
    field = v;
    return true;
  }
  std::cerr << "--" << key << " must be a finite number "
            << (lo_allowed ? ">= " : "> ") << lo << ", got " << v << "\n";
  return false;
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

// The first value that occurs twice in `values`, if any.
template <typename T>
std::optional<T> first_repeat(const std::vector<T>& values) {
  std::set<T> seen;
  for (const T& v : values) {
    if (!seen.insert(v).second) return v;
  }
  return std::nullopt;
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
    // Every grid option is range-checked here, before any output opens:
    // a cell body that refused a value would fail only after --stream had
    // begun or --out had been truncated.
    runtime::grid_options opts;
    const bool options_ok =
        read_int(args, "n", opts.target_n, 1) &&
        read_int(args, "repeats", opts.repeats, 1) &&
        read_int(args, "spike-per-node", opts.spike_per_node, 0) &&
        read_int(args, "dynamic-rounds", opts.dynamic_rounds, 1) &&
        read_int(args, "arrivals-per-round", opts.arrivals_per_round, 0) &&
        read_int(args, "burst-size", opts.burst_size, 0) &&
        read_int(args, "burst-period", opts.burst_period, 1) &&
        read_real(args, "arrival-rate", opts.arrival_rate, 0, false) &&
        read_real(args, "service-rate", opts.service_rate, 0, true);
    if (!options_ok) return 2;
    if (opts.spike_per_node > max_spike_per_node) {
      std::cerr << "--spike-per-node must be at most " << max_spike_per_node
                << " so the initial load fits the token count, got "
                << opts.spike_per_node << "\n";
      return 2;
    }
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
    const std::vector<std::string> grid_names = split_csv(grid_arg);
    const std::string trace_out = args.get("trace", "");
    const bool obs_summary = args.has("obs-summary");
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
    if (std::find(grid_names.begin(), grid_names.end(), "") !=
        grid_names.end()) {
      std::cerr << "--grid has an empty item in '" << grid_arg << "'\n";
      return 2;
    }
    // A repeated value would run the same grid twice under one name, so
    // (grid, cell) would stop being a unique row key.
    if (const auto dup = first_repeat(grid_names)) {
      std::cerr << "--grid lists '" << *dup << "' twice\n";
      return 2;
    }
    if (const auto dup = first_repeat(shard_thread_list)) {
      std::cerr << "--shard-threads lists " << *dup << " twice\n";
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
    if (shard_thread_list.size() > 1 && !ckpt_path.empty()) {
      std::cerr << "--shard-threads with several values renames grids "
                   "(-s<k> suffixes), which the checkpoint fingerprint "
                   "cannot track; run the values separately\n";
      return 2;
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

    // Build and expand every grid spec up front: an unknown grid name, a bad
    // config (expand_grid checks repeats and rounds) or a bad replay trace
    // must fail *before* outputs are touched — opening --out truncates it,
    // and a begun stream has already emitted its framing.
    std::vector<runtime::grid_spec> specs;
    std::vector<std::size_t> cell_counts;
    for (const std::string& name : grid_names) {
      for (const unsigned shard_threads : shard_thread_list) {
        opts.shard_threads = shard_threads;
        specs.push_back(runtime::make_named_grid(name, opts, master_seed));
        if (shard_thread_list.size() > 1) {
          specs.back().name += "-s" + std::to_string(shard_threads);
        }
        specs.back().recorder = recorder.get();
        specs.back().obs_extras = obs_extras;
        specs.back().trace_proto = runtime::load_replay_trace(specs.back());
        cell_counts.push_back(
            runtime::expand_grid(specs.back(), master_seed).size());
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

    // Every grid runs through the one driver; only where its rows go
    // differs. --stream hands each row to the writers the moment every
    // earlier cell has finished — the grid is never materialized; otherwise
    // rows collect per grid (for --table) and are written once all grids
    // succeeded.
    runtime::row_writer stdout_writer(std::cout, format,
                                      runtime::timing::exclude);
    runtime::row_writer file_writer(out_file, format,
                                    runtime::timing::include);
    if (stream) {
      if (!out_path.empty() && !open_out()) return 1;
      stdout_writer.begin();
      if (out_file.is_open()) file_writer.begin();
    }
    std::vector<runtime::result_row> rows;  // the current grid's
    const auto emit = [&](const runtime::result_row& row) {
      if (!stream) {
        rows.push_back(row);
        return;
      }
      stdout_writer.row(row);
      if (out_file.is_open()) file_writer.row(row);
    };

    std::vector<runtime::result_row> all_rows;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const runtime::grid_spec& spec = specs[i];
      std::cerr << "running grid '" << spec.name << "' (" << cell_counts[i]
                << " cells, " << threads << " threads";
      if (spec.shard_threads > 1) {
        std::cerr << ", " << spec.shard_threads << " shard threads";
      }
      std::cerr << ")\n";
      rows.clear();
      runtime::run_grid(spec, master_seed, pool, emit,
                        ckpt ? &*ckpt : nullptr, ckpt_path,
                        static_cast<std::uint64_t>(ckpt_every));
      if (want_table) {
        std::cerr << "\n" << spec.description << "\n";
        runtime::render_view(spec, rows).print(std::cerr);
      }
      all_rows.insert(all_rows.end(),
                      std::make_move_iterator(rows.begin()),
                      std::make_move_iterator(rows.end()));
    }
    if (want_table) runtime::print_scaling_efficiency(all_rows, std::cerr);

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
      if (obs_summary) obs::write_summary(std::cerr, *recorder);
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
        std::cerr << "wrote " << file_writer.rows_written() << " rows to "
                  << out_path << "\n";
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
