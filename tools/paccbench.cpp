// paccbench — OSU-style command-line harness for the simulated cluster.
//
// Collective sweep (one op, sizes stepped ×4; --jobs parallelises the cells):
//   paccbench --op alltoall --ranks 64 --ppn 8 --min 16K --max 1M
//             --scheme proposed --iters 5 --warmup 2 [--csv] [--jobs 8]
//
// Full capability-matrix sweep (every supported op × scheme per size):
//   paccbench --sweep --ranks 32 --ppn 4 --min 16K --max 256K --jobs 8
//             --json sweep.json
//
// Application workload from a trace file (see src/apps/trace.hpp):
//   paccbench --workload my_app.wl --ranks 32 --ppn 4 --scheme dvfs
//
// Autotuning (race registered variants, persist winners, re-use them):
//   paccbench --op bcast --min 16K --max 1M --tune --tuned-table tuned.json
//   paccbench --op bcast --min 16K --max 1M --tuned-table tuned.json
// Force one registered algorithm (see docs/TUNING.md):
//   paccbench --op bcast --algo bcast_tree_chain:seg=32K
//
// Cluster knobs: --nodes, --affinity bunch|scatter, --mode polling|blocking,
// --governor [threshold_us], --core-throttle, --racks <nodes_per_rack>,
// --fabric <size[:oversub],...> (fat-tree levels, bottom-up), --collapse
// <0 auto | 1 full | N forced multiplicity>.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/trace.hpp"
#include "coll/registry.hpp"
#include "coll/tuner.hpp"
#include "pacc/campaign.hpp"
#include "pacc/journal.hpp"
#include "pacc/simulation.hpp"
#include "pacc/tuning.hpp"
#include "util/args.hpp"
#include "util/fsio.hpp"
#include "util/table.hpp"

namespace {

using namespace pacc;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --op NAME          alltoall|alltoallv|bcast|reduce|allreduce|\n"
      << "                     allgather|gather|scatter|scan|reduce_scatter|barrier\n"
      << "  --sweep            run every supported op x scheme combination\n"
      << "  --workload FILE    run a workload trace instead of a collective\n"
      << "  --algo SPEC        force one registered algorithm instead of the\n"
      << "                     op's default dispatch; SPEC is NAME[:seg=BYTES]\n"
      << "                     (e.g. bcast_tree_chain:seg=32K). Run with an\n"
      << "                     unknown NAME to list the registry\n"
      << "  --tune             race every registered candidate per size and\n"
      << "                     record the winners (needs --op and\n"
      << "                     --tuned-table; sizes already in the table are\n"
      << "                     skipped). The sweep then runs tuned\n"
      << "  --tuned-table FILE persistent tuned-decision table (JSON,\n"
      << "                     pacc-tuned-v1): loaded if present and consulted\n"
      << "                     by dispatch; rewritten after --tune\n"
      << "  --scheme NAME      none|dvfs|proposed (default none)\n"
      << "  --ranks N          MPI ranks (default 64)\n"
      << "  --ppn N            ranks per node (default 8)\n"
      << "  --nodes N          nodes (default ranks/ppn)\n"
      << "  --min SIZE         sweep start (default 16K)\n"
      << "  --max SIZE         sweep end (default 1M)\n"
      << "  --iters N          timed iterations per size (default 5)\n"
      << "  --warmup N         warmup iterations (default 2)\n"
      << "  --jobs N           worker threads for sweep cells (default 1;\n"
      << "                     0 = one per hardware thread); output is\n"
      << "                     identical for every value\n"
      << "  --json FILE        also write a pacc-campaign-v1 JSON artifact\n"
      << "  --affinity NAME    bunch|scatter (default bunch)\n"
      << "  --mode NAME        polling|blocking (default polling)\n"
      << "  --governor [SPEC]  enable a runtime power governor; SPEC is\n"
      << "                     KIND[:ARG]: reactive[:threshold_us] (default),\n"
      << "                     slack[:timer_us] (COUNTDOWN-style, ~500us),\n"
      << "                     powercap:WATTS[:uniform] (per-node budget;\n"
      << "                     :uniform disables redistribution). A bare\n"
      << "                     number is the reactive threshold in us\n"
      << "  --core-throttle    core-granular T-states (default socket)\n"
      << "  --racks N          nodes per rack (default: no rack layer)\n"
      << "  --fabric SPEC      multi-level fat-tree, bottom-up; SPEC is\n"
      << "                     comma-separated size[:oversub] levels, e.g.\n"
      << "                     4:2 (4-node groups, 2:1 oversubscribed) or\n"
      << "                     4:2,2 (plus a non-blocking 2-group level).\n"
      << "                     Or a dragonfly: dragonfly:G,R,N[:adaptive]\n"
      << "                     (G groups of R routers with N nodes each;\n"
      << "                     G*R*N must equal --nodes; :adaptive enables\n"
      << "                     Valiant detours, which de-collapses)\n"
      << "  --materialized-plans  build per-rank schedule tables instead of\n"
      << "                     class-compressed templates (same bytes out;\n"
      << "                     equivalence/debug aid)\n"
      << "  --collapse N       rank-symmetry collapse: 0 = automatic\n"
      << "                     (default), 1 = force the full 1:1 run,\n"
      << "                     N>1 = demand exactly that multiplicity\n"
      << "  --faults SPEC      inject faults; SPEC is comma-separated\n"
      << "                     key=value pairs, e.g.\n"
      << "                     seed=7,drop=0.01,flap=200,tfail=0.2\n"
      << "                     (see docs/FAULTS.md for every key). Adds a\n"
      << "                     status column; faulted/unreachable cells are\n"
      << "                     expected outcomes, not failures\n"
      << "  --journal FILE     write-ahead cell journal (pacc-journal-v1):\n"
      << "                     every completed cell is durably appended\n"
      << "                     before the sweep moves on. Without --resume an\n"
      << "                     existing FILE is restarted from scratch\n"
      << "  --resume           with --journal: replay already-journaled cells\n"
      << "                     instead of re-running them. A killed sweep\n"
      << "                     re-run with the same flags converges on the\n"
      << "                     byte-identical artifact (see docs/DURABILITY.md)\n"
      << "  --result-cache FILE  cross-campaign content-addressed result\n"
      << "                     cache (same format as the journal): cells any\n"
      << "                     previous campaign already measured are served\n"
      << "                     from FILE, new results are appended\n"
      << "  --isolate-cells    fork a worker subprocess per cell; a cell that\n"
      << "                     aborts or is OOM-killed classifies as status\n"
      << "                     \"crashed\" and the other cells complete\n"
      << "  --crash-retries N  retries before a dead worker classifies as\n"
      << "                     crashed (default 1)\n"
      << "  --crash-cell N     test hook: abort() inside cell N's worker\n"
      << "                     (needs --isolate-cells)\n"
      << "  --watchdog MS[:COUNT]  faulted-run quiescence watchdog: sample\n"
      << "                     interval in ms and consecutive still samples\n"
      << "                     before declaring deadlock (default 50:4)\n"
      << "  --verify-artifact FILE  strictly validate a pacc-campaign-v1\n"
      << "                     artifact (exit 0 = intact) and do nothing else\n"
      << "  --csv              emit CSV instead of an aligned table\n"
      << "  --profile          print a per-operation profile (workload mode)\n"
      << "  --node-power       print per-node mean power (workload mode)\n"
      << "  --trace FILE       write a Chrome trace (chrome://tracing) of the\n"
      << "                     last sweep point (collective mode)\n"
      << "  --energy-breakdown print exact per-phase joules per sweep point\n"
      << "                     (collective mode)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);

  if (args.has("help")) return usage(argv[0]);

  const auto scheme = coll::parse_scheme(args.get_or("scheme", "none"));
  if (!scheme) {
    std::cerr << "bad --scheme\n";
    return usage(argv[0]);
  }

  ClusterConfig cfg;
  cfg.ranks = static_cast<int>(args.int_or("ranks", 64));
  cfg.ranks_per_node = static_cast<int>(args.int_or("ppn", 8));
  cfg.nodes = static_cast<int>(
      args.int_or("nodes", cfg.ranks / std::max(1, cfg.ranks_per_node)));
  cfg.nodes_per_rack = static_cast<int>(args.int_or("racks", 0));
  if (const auto fabric_arg = args.get("fabric");
      fabric_arg && fabric_arg->rfind("dragonfly:", 0) == 0) {
    // dragonfly:G,R,N[:adaptive] — G groups x R routers x N nodes/router.
    std::string spec = fabric_arg->substr(std::strlen("dragonfly:"));
    if (const auto colon = spec.find(':'); colon != std::string::npos) {
      const std::string tail = spec.substr(colon + 1);
      if (tail != "adaptive") {
        std::cerr << "bad --fabric dragonfly suffix \"" << tail
                  << "\" (only :adaptive is understood)\n";
        return usage(argv[0]);
      }
      cfg.dragonfly.adaptive = true;
      spec = spec.substr(0, colon);
    }
    int groups = 0;
    try {
      std::size_t pos = 0;
      groups = std::stoi(spec, &pos);
      if (spec.at(pos) != ',') throw std::invalid_argument(spec);
      spec = spec.substr(pos + 1);
      cfg.dragonfly.routers_per_group = std::stoi(spec, &pos);
      if (spec.at(pos) != ',') throw std::invalid_argument(spec);
      cfg.dragonfly.nodes_per_router = std::stoi(spec.substr(pos + 1));
    } catch (const std::exception&) {
      std::cerr << "bad --fabric dragonfly spec \"" << *fabric_arg
                << "\" (want dragonfly:G,R,N[:adaptive])\n";
      return usage(argv[0]);
    }
    if (groups < 2 || cfg.dragonfly.routers_per_group < 1 ||
        cfg.dragonfly.nodes_per_router < 1) {
      std::cerr << "bad --fabric dragonfly shape: need >=2 groups and "
                   ">=1 routers/nodes per level\n";
      return usage(argv[0]);
    }
    const long long df_nodes = 1ll * groups *
                               cfg.dragonfly.routers_per_group *
                               cfg.dragonfly.nodes_per_router;
    if (df_nodes != cfg.nodes) {
      std::cerr << "--fabric dragonfly shape covers " << df_nodes
                << " nodes but --nodes is " << cfg.nodes
                << " (need G*R*N == nodes)\n";
      return usage(argv[0]);
    }
  } else if (fabric_arg) {
    // size[:oversub] per level, comma-separated, bottom-up.
    std::string spec = *fabric_arg;
    while (!spec.empty()) {
      const auto comma = spec.find(',');
      std::string level = spec.substr(0, comma);
      spec = comma == std::string::npos ? "" : spec.substr(comma + 1);
      hw::FabricLevelSpec parsed;
      const auto colon = level.find(':');
      try {
        parsed.group_size = std::stoi(level.substr(0, colon));
        if (colon != std::string::npos) {
          parsed.oversubscription = std::stod(level.substr(colon + 1));
        }
      } catch (const std::exception&) {
        parsed.group_size = 0;
      }
      if (parsed.group_size < 2 || parsed.oversubscription < 1.0) {
        std::cerr << "bad --fabric level \"" << level << "\"\n";
        return usage(argv[0]);
      }
      cfg.fabric.push_back(parsed);
    }
  }
  cfg.collapse_multiplicity = static_cast<int>(args.int_or("collapse", 0));
  if (cfg.collapse_multiplicity < 0) {
    std::cerr << "bad --collapse\n";
    return usage(argv[0]);
  }
  if (cfg.collapse_multiplicity > 1 && cfg.dragonfly.adaptive) {
    std::cerr << "--collapse " << cfg.collapse_multiplicity
              << " cannot quotient an adaptive dragonfly: Valiant detours "
                 "pick absolute intermediate groups, so groups are not "
                 "interchangeable. Drop :adaptive or use --collapse 1\n";
    return usage(argv[0]);
  }
  cfg.materialized_plans = args.has("materialized-plans");
  cfg.core_level_throttling = args.has("core-throttle");
  const std::string affinity = args.get_or("affinity", "bunch");
  if (affinity == "scatter") {
    cfg.affinity = hw::AffinityPolicy::kScatter;
  } else if (affinity != "bunch") {
    std::cerr << "bad --affinity\n";
    return usage(argv[0]);
  }
  const std::string mode = args.get_or("mode", "polling");
  if (mode == "blocking") {
    cfg.progress = mpi::ProgressMode::kBlocking;
  } else if (mode != "polling") {
    std::cerr << "bad --mode\n";
    return usage(argv[0]);
  }
  if (args.has("governor")) {
    cfg.governor.enabled = true;
    std::string spec = args.get_or("governor", "");
    char* end = nullptr;
    const double bare_us =
        spec.empty() ? 0.0 : std::strtod(spec.c_str(), &end);
    if (spec.empty()) {
      // `--governor` alone keeps the historical reactive defaults.
    } else if (end != nullptr && *end == '\0') {
      // Bare number: the historical `--governor US` reactive threshold.
      if (bare_us > 0) cfg.governor.wait_threshold = Duration::micros(bare_us);
    } else {
      const auto colon = spec.find(':');
      const auto kind = mpi::parse_governor_kind(spec.substr(0, colon));
      if (!kind) {
        std::cerr << "bad --governor kind \"" << spec.substr(0, colon)
                  << "\"\n";
        return usage(argv[0]);
      }
      cfg.governor.kind = *kind;
      std::string arg =
          colon == std::string::npos ? "" : spec.substr(colon + 1);
      const auto colon2 = arg.find(':');
      std::string extra;
      if (colon2 != std::string::npos) {
        extra = arg.substr(colon2 + 1);
        arg = arg.substr(0, colon2);
      }
      double value = 0.0;
      if (!arg.empty()) {
        try {
          value = std::stod(arg);
        } catch (const std::exception&) {
          std::cerr << "bad --governor argument \"" << arg << "\"\n";
          return usage(argv[0]);
        }
      }
      switch (*kind) {
        case mpi::GovernorKind::kReactive:
          if (value > 0) cfg.governor.wait_threshold = Duration::micros(value);
          break;
        case mpi::GovernorKind::kSlack:
          if (value > 0) cfg.governor.slack_threshold = Duration::micros(value);
          break;
        case mpi::GovernorKind::kPowerCap:
          if (value <= 0) {
            std::cerr << "--governor powercap:WATTS needs a positive budget\n";
            return usage(argv[0]);
          }
          cfg.governor.node_power_cap = value;
          if (extra == "uniform") {
            cfg.governor.redistribute = false;
          } else if (!extra.empty()) {
            std::cerr << "bad --governor powercap option \"" << extra
                      << "\"\n";
            return usage(argv[0]);
          }
          break;
      }
    }
  }
  if (const auto faults_arg = args.get("faults")) {
    std::string error;
    const auto parsed = fault::FaultSpec::parse(*faults_arg, &error);
    if (!parsed) {
      std::cerr << "bad --faults: " << error << "\n";
      return usage(argv[0]);
    }
    cfg.faults = *parsed;
  }
  const bool faulty = cfg.faults.active();

  const bool csv = args.has("csv");
  const bool profile = args.has("profile");
  const bool node_power = args.has("node-power");
  cfg.obs.per_node_meter = node_power;
  const auto workload_file = args.get("workload");
  const auto trace_file = args.get("trace");
  const bool energy_breakdown = args.has("energy-breakdown");
  cfg.obs.trace = trace_file.has_value() || energy_breakdown;
  const auto op = coll::parse_op(args.get_or("op", "alltoall"));
  const bool sweep_all = args.has("sweep");
  const Bytes min_size = args.bytes_or("min", 16 * 1024);
  const Bytes max_size = args.bytes_or("max", 1 << 20);
  const int iters = static_cast<int>(args.int_or("iters", 5));
  const int warmup = static_cast<int>(args.int_or("warmup", 2));
  const int jobs = static_cast<int>(args.int_or("jobs", 1));
  const auto json_file = args.get("json");
  const bool tune = args.has("tune");
  const auto tuned_table_file = args.get("tuned-table");
  const auto journal_file = args.get("journal");
  const bool resume = args.has("resume");
  const auto cache_file = args.get("result-cache");
  const bool isolate = args.has("isolate-cells");
  const int crash_retries = static_cast<int>(args.int_or("crash-retries", 1));
  const long long crash_cell = args.int_or("crash-cell", -1);
  const auto verify_file = args.get("verify-artifact");
  if (const auto wd = args.get("watchdog")) {
    const auto colon = wd->find(':');
    double interval_ms = 0.0;
    long long stall_ticks = cfg.watchdog.stall_ticks;
    try {
      interval_ms = std::stod(wd->substr(0, colon));
      if (colon != std::string::npos) {
        stall_ticks = std::stoll(wd->substr(colon + 1));
      }
    } catch (const std::exception&) {
      interval_ms = 0.0;
    }
    if (interval_ms <= 0.0 || stall_ticks < 1) {
      std::cerr << "bad --watchdog \"" << *wd << "\" (want MS[:COUNT], both "
                << "positive)\n";
      return usage(argv[0]);
    }
    cfg.watchdog.interval = Duration::millis(interval_ms);
    cfg.watchdog.stall_ticks = static_cast<int>(stall_ticks);
  }

  // --algo NAME[:seg=BYTES]: force one registered algorithm.
  const coll::AlgoDesc* forced_algo = nullptr;
  Bytes forced_seg = 0;
  if (const auto algo_arg = args.get("algo")) {
    std::string name = *algo_arg;
    if (const auto pos = name.find(":seg="); pos != std::string::npos) {
      const auto seg = parse_bytes(name.substr(pos + 5));
      if (!seg || *seg <= 0) {
        std::cerr << "bad --algo segment \"" << name.substr(pos + 5)
                  << "\"\n";
        return usage(argv[0]);
      }
      forced_seg = *seg;
      name = name.substr(0, pos);
    }
    forced_algo = coll::find_algorithm(name);
    if (forced_algo == nullptr) {
      std::cerr << "unknown algorithm \"" << name
                << "\" (registered: " << coll::algorithm_names() << ")\n";
      return usage(argv[0]);
    }
    if (forced_seg > 0 && !forced_algo->segmented) {
      std::cerr << "algorithm \"" << name << "\" is not segmented\n";
      return usage(argv[0]);
    }
  }

  const auto unknown = args.unknown();
  if (!unknown.empty()) {
    std::cerr << "unknown flag(s):";
    for (const auto& f : unknown) std::cerr << " " << f;
    std::cerr << "\n";
    return usage(argv[0]);
  }

  if (verify_file) {
    std::ifstream in(*verify_file);
    if (!in) {
      std::cerr << "cannot open " << *verify_file << "\n";
      return 1;
    }
    std::string error;
    const auto loaded = load_campaign_json(in, &error);
    if (!loaded) {
      std::cerr << *verify_file << ": " << error << "\n";
      return 1;
    }
    std::cout << *verify_file << ": valid pacc-campaign-v1 artifact, "
              << loaded->cells.size() << " cell(s)\n";
    return 0;
  }

  if (resume && !journal_file) {
    std::cerr << "--resume needs --journal FILE\n";
    return usage(argv[0]);
  }
  if (crash_cell >= 0 && !isolate) {
    std::cerr << "--crash-cell needs --isolate-cells\n";
    return usage(argv[0]);
  }
  std::shared_ptr<CellJournal> journal;
  if (journal_file) {
    // Without --resume this invocation owns the sweep from cell zero: a
    // stale journal from an earlier run must not mask fresh work.
    if (!resume) std::remove(journal_file->c_str());
    std::string error;
    journal = CellJournal::open(*journal_file, &error);
    if (!journal) {
      std::cerr << "bad --journal: " << error << "\n";
      return 1;
    }
    if (resume && journal->replayed() > 0) {
      std::cerr << "# resuming: " << journal->replayed()
                << " journaled cell(s) will be replayed\n";
    }
  }
  std::shared_ptr<CellJournal> result_cache;
  if (cache_file) {
    std::string error;
    result_cache = CellJournal::open(*cache_file, &error);
    if (!result_cache) {
      std::cerr << "bad --result-cache: " << error << "\n";
      return 1;
    }
  }

  std::shared_ptr<coll::Tuner> tuner;
  if (tuned_table_file) {
    tuner = std::make_shared<coll::Tuner>();
    if (std::ifstream in(*tuned_table_file); in) {
      std::string error;
      if (!tuner->load(in, &error)) {
        std::cerr << "bad --tuned-table " << *tuned_table_file << ": "
                  << error << "\n";
        return 1;
      }
    }
    cfg.tuner = tuner;
  }
  if (tune) {
    if (!tuned_table_file) {
      std::cerr << "--tune needs --tuned-table FILE\n";
      return usage(argv[0]);
    }
    if (!args.has("op") || sweep_all || workload_file ||
        forced_algo != nullptr) {
      std::cerr << "--tune needs an explicit --op and is incompatible with "
                   "--sweep/--workload/--algo\n";
      return usage(argv[0]);
    }
  }
  if (forced_algo != nullptr && (sweep_all || workload_file)) {
    std::cerr << "--algo applies to single-op collective mode only\n";
    return usage(argv[0]);
  }

  if (workload_file) {
    if (cfg.obs.trace) {
      std::cerr << "--trace/--energy-breakdown apply to collective mode only\n";
      return usage(argv[0]);
    }
    const auto parsed = apps::load_workload(*workload_file);
    if (!parsed.ok()) {
      std::cerr << "error: " << parsed.error << "\n";
      return 1;
    }
    const auto report = apps::run_workload(cfg, parsed.spec, *scheme);
    if (!report.status.usable()) {
      std::cerr << "simulation failed: " << report.status.describe() << "\n";
      return 1;
    }
    if (!report.status.ok()) {
      std::cerr << "# run disturbed by injected faults: "
                << report.status.describe() << "\n";
    }
    Table t({"workload", "scheme", "ranks", "total_s", "comm_s", "alltoall_s",
             "energy_KJ", "mean_kW"});
    t.add_row({report.workload, coll::to_string(report.scheme),
               std::to_string(report.ranks),
               Table::num(report.total_time.sec(), 3),
               Table::num(report.comm_time.sec(), 3),
               Table::num(report.alltoall_time.sec(), 3),
               Table::num(report.energy / 1000.0, 3),
               Table::num(report.mean_power / 1000.0, 3)});
    if (csv) {
      t.print_csv(std::cout);
    } else {
      t.print(std::cout);
    }
    if (node_power && !report.mean_node_power.empty()) {
      const bool sampled = report.mean_node_power.front() > 0.0;
      if (!sampled) {
        std::cout << "\nper-node power: no samples — the simulated run is\n"
                     "shorter than the 0.5 s meter interval; raise the\n"
                     "workload's `iterations`.\n";
      } else {
        std::cout << "\nper-node mean power (kW):\n";
        Table nt({"node", "mean_kW"});
        for (std::size_t n = 0; n < report.mean_node_power.size(); ++n) {
          nt.add_row({std::to_string(n),
                      Table::num(report.mean_node_power[n] / 1000.0, 3)});
        }
        nt.print(std::cout);
      }
    }
    if (profile && !report.profile.empty()) {
      std::cout << "\nper-operation profile (simulated iterations only):\n";
      Table pt({"op", "calls", "bytes", "rank_time_s", "mean_us", "max_us"});
      for (const auto& [name, s] : report.profile) {
        pt.add_row({name, std::to_string(s.calls), std::to_string(s.bytes),
                    Table::num(s.total_time.sec(), 4),
                    Table::num(s.mean_us(), 1),
                    Table::num(s.max_time.us(), 1)});
      }
      pt.print(std::cout);
    }
    return 0;
  }

  if (!sweep_all && !op) {
    std::cerr << "bad --op\n";
    return usage(argv[0]);
  }
  if (forced_algo != nullptr) {
    if (forced_algo->op != *op) {
      std::cerr << "algorithm \"" << forced_algo->name << "\" implements "
                << coll::to_string(forced_algo->op) << ", not "
                << coll::to_string(*op)
                << " (registered for this op: " << coll::algorithm_names(*op)
                << ")\n";
      return usage(argv[0]);
    }
    if (!coll::algo_supports(*forced_algo, *scheme)) {
      std::cerr << "algorithm \"" << forced_algo->name
                << "\" does not implement scheme "
                << coll::to_string(*scheme) << "\n";
      return usage(argv[0]);
    }
  }
  if (min_size < 0 || max_size < min_size) {
    std::cerr << "bad --min/--max\n";
    return usage(argv[0]);
  }

  // 0 (zero-byte regression point) steps to 1, then ×4 like OSU.
  std::vector<Bytes> sizes;
  for (Bytes size = min_size; size <= max_size;
       size = size == 0 ? Bytes{1} : size * 4) {
    sizes.push_back(size);
  }

  if (tune) {
    TuneRequest treq;
    treq.cluster = cfg;
    treq.op = *op;
    treq.scheme = *scheme;
    treq.sizes = sizes;
    treq.iterations = iters;
    treq.warmup = warmup;
    const TuneReport tr = tune_collective(*tuner, treq, jobs);
    for (const TuneCellResult& cell : tr.cells) {
      if (cell.skipped || !cell.decision.algo.empty()) continue;
      std::cerr << "tuning failed at " << format_bytes(cell.message)
                << ": every candidate errored\n";
      return 1;
    }
    if (!tuner->save_file(*tuned_table_file)) {
      std::cerr << "cannot write " << *tuned_table_file << "\n";
      return 1;
    }
    std::cerr << "# tuned: raced " << tr.raced_cells
              << " candidate run(s), skipped " << tr.skipped_cells
              << " already-tuned size(s); table written to "
              << *tuned_table_file << "\n";
  }

  auto make_spec = [&](coll::Op o, coll::PowerScheme s, Bytes size) {
    CollectiveBenchSpec spec;
    spec.op = o;
    spec.message = size;
    spec.scheme = s;
    spec.iterations = iters;
    spec.warmup = warmup;
    if (forced_algo != nullptr) {
      spec.algo = std::string(forced_algo->name);
      spec.seg = forced_seg;
    }
    return spec;
  };

  SweepSpec sweep;
  if (sweep_all) {
    // Capability matrix: every op × scheme the registry supports, per size.
    for (const coll::Op o : coll::kAllOps) {
      for (const coll::PowerScheme s : coll::kAllSchemes) {
        if (!coll::supported(o, s)) continue;
        for (const Bytes size : sizes) {
          sweep.add(cfg, make_spec(o, s, size));
          if (o == coll::Op::kBarrier) break;  // size is meaningless
        }
      }
    }
  } else {
    for (const Bytes size : sizes) {
      sweep.add(cfg, make_spec(*op, *scheme, size));
      if (*op == coll::Op::kBarrier) break;  // size is meaningless
    }
  }

  CampaignOptions opts;
  opts.jobs = jobs;
  opts.journal = journal;
  opts.resume = resume;
  opts.result_cache = result_cache;
  opts.isolate_cells = isolate;
  opts.crash_retries = crash_retries;
  if (crash_cell >= 0) {
    opts.before_cell = [crash_cell](std::size_t i) {
      if (static_cast<long long>(i) == crash_cell) std::abort();
    };
  }
  const auto results = Campaign(sweep, opts).run();

  std::vector<std::string> columns;
  if (sweep_all) {
    columns.insert(columns.end(), {"op", "scheme"});
  }
  columns.insert(columns.end(),
                 {"size", "latency_us", "energy_per_op_J", "mean_kW"});
  const bool status_column = faulty || isolate;
  if (status_column) columns.push_back("status");
  Table t(columns);
  std::vector<std::pair<Bytes, std::vector<obs::PhaseEnergy>>> breakdowns;
  std::string last_trace;
  int hard_failures = 0;
  for (const CellResult& r : results) {
    const SweepCell& cell = sweep.cells[r.index];
    // Under fault injection, disturbed-but-correct (faulted) and
    // retry-budget-exhausted (unreachable) cells are CLASSIFIED outcomes
    // the sweep reports and carries on from; under --isolate-cells a dead
    // worker (crashed) is too. Only an unclassified ending (timeout,
    // deadlock, error) fails the harness.
    const bool classified =
        r.status.usable() ||
        (faulty && r.status.outcome == RunOutcome::kUnreachable) ||
        (isolate && r.status.outcome == RunOutcome::kCrashed);
    if (!classified) {
      std::cerr << "cell " << coll::to_string(cell.bench.op) << "/"
                << coll::to_string(cell.bench.scheme) << "/"
                << format_bytes(cell.bench.message)
                << " failed: " << r.status.describe() << "\n";
      if (!faulty && !isolate) return 1;
      ++hard_failures;
      continue;
    }
    std::vector<std::string> row;
    if (sweep_all) {
      row.push_back(coll::to_string(cell.bench.op));
      row.push_back(coll::to_string(cell.bench.scheme));
    }
    row.push_back(format_bytes(cell.bench.message));
    if (r.status.usable()) {
      row.push_back(Table::num(r.report.latency.us(), 2));
      row.push_back(Table::num(r.report.energy_per_op, 3));
      row.push_back(Table::num(r.report.mean_power / 1000.0, 3));
    } else {
      // Unreachable/crashed: the timed window never closed (or the worker
      // died before reporting), the numbers are void.
      row.insert(row.end(), {"-", "-", "-"});
    }
    if (status_column) row.push_back(to_string(r.status.outcome));
    t.add_row(row);
    if (energy_breakdown) {
      breakdowns.emplace_back(cell.bench.message, r.report.energy_phases);
    }
    if (trace_file) last_trace = r.report.trace_json;
  }
  if (json_file) {
    // Atomic replace: a crash mid-write must leave either no artifact or a
    // complete one — never a torn file --verify-artifact would reject.
    std::ostringstream artifact;
    write_campaign_json(artifact, sweep, results);
    std::string error;
    if (!atomic_write_file(*json_file, artifact.str(), &error)) {
      std::cerr << "cannot write " << *json_file << ": " << error << "\n";
      return 1;
    }
    std::cerr << "# campaign artifact written to " << *json_file << "\n";
  }
  if (csv) {
    t.print_csv(std::cout);
  } else {
    std::cout << "# pacc "
              << (sweep_all ? std::string("capability sweep")
                            : coll::to_string(*op) + ", " +
                                  coll::to_string(*scheme))
              << ", " << cfg.ranks << " ranks ("
              << cfg.ranks_per_node << "/node), "
              << hw::to_string(cfg.affinity) << ", " << to_string(cfg.progress)
              << (cfg.governor.enabled
                      ? (cfg.governor.kind == mpi::GovernorKind::kReactive
                             ? std::string(", governor")
                             : ", governor=" +
                                   mpi::to_string(cfg.governor.kind))
                      : "")
              << (faulty ? ", faults[" + args.get_or("faults", "") + "]" : "")
              << "\n";
    t.print(std::cout);
  }
  for (const auto& [size, phases] : breakdowns) {
    Joules total = 0.0;
    for (const auto& p : phases) total += p.joules;
    std::cout << "\n# per-phase energy at " << format_bytes(size)
              << " (exact; sums to the run's total integral)\n";
    Table et({"phase", "joules", "time_ms", "calls", "share_pct"});
    for (const auto& p : phases) {
      et.add_row({p.name, Table::num(p.joules, 3),
                  Table::num(p.time.ms(), 3), std::to_string(p.calls),
                  Table::num(total > 0 ? 100.0 * p.joules / total : 0.0, 1)});
    }
    if (csv) {
      et.print_csv(std::cout);
    } else {
      et.print(std::cout);
    }
  }
  if (trace_file) {
    std::string error;
    if (!atomic_write_file(*trace_file, last_trace, &error)) {
      std::cerr << "cannot write " << *trace_file << ": " << error << "\n";
      return 1;
    }
    std::cerr << "# trace (last sweep point) written to " << *trace_file
              << "\n";
  }
  if (hard_failures > 0) {
    std::cerr << hard_failures
              << " cell(s) ended without a classified outcome\n";
    return 1;
  }
  return 0;
}
