#include "pacc/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "coll/plan.hpp"
#include "coll/tuner.hpp"
#include "pacc/journal.hpp"
#include "util/expect.hpp"
#include "util/table.hpp"

#if !defined(_WIN32)
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace pacc {

namespace {

int resolve_jobs(int requested, std::size_t work) {
  int jobs = requested;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  const auto cap = static_cast<int>(std::max<std::size_t>(1, work));
  return std::clamp(jobs, 1, cap);
}

/// Work-stealing index scheduler. Indices are dealt round-robin into
/// per-worker deques; a worker pops its own share front-to-back and, once
/// empty, steals from the *back* of the next non-empty victim (classic
/// owner-front / thief-back discipline, which keeps neighbouring cells —
/// typically similar sizes — on their original worker). Plain mutexes per
/// deque: a cell is an entire simulation, so scheduling cost is noise; the
/// locks only have to be contention-correct.
class StealQueues {
 public:
  StealQueues(std::size_t count, int workers) : queues_(workers) {
    for (std::size_t i = 0; i < count; ++i) {
      queues_[i % static_cast<std::size_t>(workers)].items.push_back(i);
    }
  }

  /// Next index for `worker`; nullopt once every deque is empty.
  std::optional<std::size_t> next(int worker) {
    const int n = static_cast<int>(queues_.size());
    for (int k = 0; k < n; ++k) {
      Deque& q = queues_[static_cast<std::size_t>((worker + k) % n)];
      std::lock_guard<std::mutex> lock(q.mu);
      if (q.items.empty()) continue;
      std::size_t index;
      if (k == 0) {
        index = q.items.front();
        q.items.pop_front();
      } else {
        index = q.items.back();
        q.items.pop_back();
      }
      return index;
    }
    return std::nullopt;
  }

 private:
  struct Deque {
    std::mutex mu;
    std::deque<std::size_t> items;
  };
  std::vector<Deque> queues_;
};

/// Runs body(i) for every i in [0, count) on `jobs` workers. jobs == 1
/// stays on the calling thread (no pool, debugger-friendly).
void run_pool(std::size_t count, int jobs,
              const std::function<void(std::size_t)>& body) {
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  StealQueues queues(count, jobs);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    workers.emplace_back([&queues, &body, w] {
      while (const auto index = queues.next(w)) body(*index);
    });
  }
  for (std::thread& t : workers) t.join();
}

/// Guards the PACC_EXPECTS contracts measure_collective would abort on, so
/// a malformed cell degrades to a status instead of killing the sweep.
RunStatus validate(const SweepCell& cell) {
  if (cell.cluster.nodes < 1 || cell.cluster.ranks < 1 ||
      cell.cluster.ranks_per_node < 1) {
    return RunStatus::error("invalid cluster shape");
  }
  if (cell.bench.iterations < 1 || cell.bench.warmup < 0) {
    return RunStatus::error("invalid iterations/warmup");
  }
  if (cell.bench.message < 0) {
    return RunStatus::error("negative message size");
  }
  if (cell.cluster.faults.active() &&
      (cell.cluster.watchdog.interval <= Duration::zero() ||
       cell.cluster.watchdog.stall_ticks < 1)) {
    // The Watchdog constructor enforces these as hard contracts; degrade
    // to a status instead of letting one bad cell abort the sweep.
    return RunStatus::error("invalid watchdog thresholds");
  }
  if (!cell.cluster.fabric.empty() || cell.cluster.dragonfly.enabled()) {
    hw::ClusterShape shape;
    shape.nodes = cell.cluster.nodes;
    shape.nodes_per_rack = cell.cluster.nodes_per_rack;
    shape.fabric = cell.cluster.fabric;
    shape.dragonfly = cell.cluster.dragonfly;
    if (!shape.valid()) {
      return RunStatus::error("invalid fabric description");
    }
  }
  if (cell.cluster.nodes_per_rack > 0 &&
      !(cell.cluster.network.value_or(presets::paper_network())
            .rack_bandwidth > 0.0)) {
    // FlowNetwork enforces this as a hard contract.
    return RunStatus::error("rack layer needs rack_bandwidth > 0");
  }
  return {};
}

/// The journal's view of a finished cell: exactly the fields
/// write_campaign_json consumes, so a replay reproduces the artifact bytes.
CellRecord record_from(std::uint64_t key, const RunStatus& status,
                       const CollectiveReport& report) {
  CellRecord rec;
  rec.key = key;
  rec.status = status;
  rec.latency = report.latency;
  rec.energy_per_op = report.energy_per_op;
  rec.mean_power = report.mean_power;
  rec.collapse_multiplicity = report.collapse.multiplicity;
  rec.collapse_classes = report.collapse.classes;
  rec.faults = report.faults;
  rec.governor = report.governor;
  return rec;
}

void apply_record(const CellRecord& rec, CellResult& result) {
  result.status = rec.status;
  result.report.status = rec.status;
  result.report.latency = rec.latency;
  result.report.energy_per_op = rec.energy_per_op;
  result.report.mean_power = rec.mean_power;
  result.report.collapse.multiplicity = rec.collapse_multiplicity;
  result.report.collapse.classes = rec.collapse_classes;
  result.report.faults = rec.faults;
  result.report.governor = rec.governor;
}

/// Runs one cell with try/catch degradation to kError — the shared body of
/// the inline path and the forked child.
CellRecord execute_cell(const ClusterConfig& cluster,
                        const CollectiveBenchSpec& bench, std::uint64_t key,
                        CollectiveReport* report_out) {
  try {
    CollectiveReport report = measure_collective(cluster, bench);
    if (report_out != nullptr) *report_out = report;
    return record_from(key, report.status, report);
  } catch (const std::exception& e) {
    CellRecord rec;
    rec.key = key;
    rec.status = RunStatus::error(e.what());
    return rec;
  } catch (...) {
    CellRecord rec;
    rec.key = key;
    rec.status = RunStatus::error("unknown exception");
    return rec;
  }
}

#if !defined(_WIN32)

/// Forks a worker subprocess for one cell. The child runs the cell and
/// ships the finished CellRecord back over a pipe as one journal-format
/// line; the parent classifies any death (non-zero exit, signal, torn
/// record) and retries with doubling real-time backoff before settling on
/// kCrashed. Returns the record to store at the cell's slot.
CellRecord run_isolated(const ClusterConfig& cluster,
                        const CollectiveBenchSpec& bench, std::uint64_t key,
                        std::size_t index, const CampaignOptions& options) {
  const int attempts = 1 + std::max(0, options.crash_retries);
  int backoff_ms = std::max(1, options.crash_backoff_ms);
  std::string death;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
    int fds[2];
    if (::pipe(fds) != 0) {
      CellRecord rec;
      rec.key = key;
      rec.status = RunStatus::error("pipe() failed for isolated cell");
      return rec;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      CellRecord rec;
      rec.key = key;
      rec.status = RunStatus::error("fork() failed for isolated cell");
      return rec;
    }
    if (pid == 0) {
      // Child: run the cell, ship the record, _exit without running any
      // parent-side destructors. The crash seam runs HERE so a deliberate
      // abort exercises exactly the production death path.
      ::close(fds[0]);
      if (options.before_cell) options.before_cell(index);
      const CellRecord rec = execute_cell(cluster, bench, key, nullptr);
      const std::string line = encode_cell_record(rec) + "\n";
      std::size_t written = 0;
      while (written < line.size()) {
        const ssize_t n =
            ::write(fds[1], line.data() + written, line.size() - written);
        if (n < 0) {
          if (errno == EINTR) continue;
          ::_exit(3);
        }
        written += static_cast<std::size_t>(n);
      }
      ::_exit(0);
    }
    // Parent: drain the pipe, reap, classify.
    ::close(fds[1]);
    std::string wire;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof buf)) > 0 ||
           (n < 0 && errno == EINTR)) {
      if (n > 0) wire.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
      if (!wire.empty() && wire.back() == '\n') wire.pop_back();
      CellRecord rec;
      std::string decode_error;
      if (decode_cell_record(wire, &rec, &decode_error)) {
        rec.key = key;  // the child does not know about hash-less cells
        return rec;
      }
      death = "worker result corrupt (" + decode_error + ")";
    } else if (WIFSIGNALED(wstatus)) {
      death = "worker killed by signal " + std::to_string(WTERMSIG(wstatus));
    } else {
      death = "worker exited with code " +
              std::to_string(WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1);
    }
  }
  CellRecord rec;
  rec.key = key;
  rec.status = {RunOutcome::kCrashed,
                death + " after " + std::to_string(attempts) + " attempt(s)"};
  return rec;
}

#endif  // !_WIN32

void json_escape(std::string& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

SweepSpec& SweepSpec::add(const ClusterConfig& cluster,
                          const CollectiveBenchSpec& bench,
                          std::string label) {
  cells.push_back(SweepCell{std::move(label), cluster, bench});
  return *this;
}

SweepSpec SweepSpec::grid(const std::vector<ClusterConfig>& clusters,
                          const std::vector<CollectiveBenchSpec>& benches) {
  SweepSpec spec;
  spec.cells.reserve(clusters.size() * benches.size());
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (const CollectiveBenchSpec& bench : benches) {
      spec.add(clusters[c], bench,
               std::to_string(c) + "/" + coll::to_string(bench.op) + "/" +
                   coll::to_string(bench.scheme) + "/" +
                   format_bytes(bench.message));
    }
  }
  return spec;
}

Campaign::Campaign(SweepSpec spec, CampaignOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

std::vector<CellResult> Campaign::run() {
  const std::size_t total = spec_.cells.size();
  std::vector<CellResult> results(total);
  std::mutex progress_mu;
  std::size_t finished = 0;

  // One plan cache for the whole sweep: cells with equal cluster configs
  // (the common case — a sweep varies op/scheme/size over one cluster)
  // build each collective schedule once instead of once per cell. Cells
  // that arrived with their own cache keep it.
  const auto shared_plans = std::make_shared<coll::PlanCache>();

  const auto run_cell = [&](std::size_t i) {
    const SweepCell& cell = spec_.cells[i];
    CellResult& result = results[i];
    result.index = i;
    result.label = cell.label;
    if (cancelled()) {
      result.status = RunStatus::error("cancelled");
    } else if (RunStatus invalid = validate(cell); !invalid.ok()) {
      result.status = std::move(invalid);
    } else {
      ClusterConfig cluster = cell.cluster;
      if (!cluster.plan_cache) cluster.plan_cache = shared_plans;
      if (options_.cell_timeout) {
        cluster.max_sim_time = *options_.cell_timeout;
      }
      if (cluster.faults.active()) {
        // Seed from the CELL INDEX, never the worker: which thread runs a
        // cell depends on --jobs and steal timing, and the artifacts must
        // be identical for any --jobs value.
        cluster.faults.seed = fault::derive_cell_seed(cluster.faults.seed, i);
      }
      // Canonical key of the EFFECTIVE cell — hashed after the timeout
      // override and seed derivation above, so a journal written under one
      // --cell-timeout can never satisfy a sweep run under another.
      const std::optional<std::uint64_t> key =
          (options_.journal || options_.result_cache)
              ? canonical_cell_hash(cluster, cell.bench)
              : std::nullopt;

      bool replayed = false;
      if (key && options_.resume && options_.journal) {
        if (const auto rec = options_.journal->lookup(*key)) {
          apply_record(*rec, result);
          result.source = CellSource::kJournal;
          replayed = true;
        }
      }
      if (!replayed && key && options_.result_cache) {
        if (const auto rec = options_.result_cache->lookup(*key)) {
          apply_record(*rec, result);
          result.source = CellSource::kCache;
          // The journal must still cover cache-served cells, or a crash
          // after this point would re-run them against a cache that may
          // have been pruned meanwhile.
          if (options_.journal) options_.journal->append(*rec);
          replayed = true;
        }
      }
      if (!replayed) {
        CellRecord rec;
        if (options_.isolate_cells) {
#if defined(_WIN32)
          rec.status =
              RunStatus::error("process isolation unsupported on this platform");
#else
          // Fork safety at jobs > 1: another worker thread may hold the
          // shared plan cache's or tuner's mutex at fork time, and the
          // child's copy of that mutex would stay locked forever. Hand the
          // child a private plan cache (plans are pure — only speed is
          // lost) and a content-equal tuner snapshot with a fresh mutex
          // (same entries, same fingerprint, same dispatch).
          cluster.plan_cache = std::make_shared<coll::PlanCache>();
          if (cluster.tuner) {
            auto snapshot = std::make_shared<coll::Tuner>();
            std::ostringstream serialized;
            cluster.tuner->save(serialized);
            std::istringstream replay(serialized.str());
            snapshot->load(replay);
            cluster.tuner = snapshot;
          }
          rec = run_isolated(cluster, cell.bench, key.value_or(0), i, options_);
#endif
          apply_record(rec, result);
        } else {
          if (options_.before_cell) options_.before_cell(i);
          rec = execute_cell(cluster, cell.bench, key.value_or(0),
                             &result.report);
          result.status = rec.status;
        }
        // Journal the completed cell before the sweep moves on. Crashed
        // cells are deliberately NOT persisted: a resume gives a transient
        // OOM another chance, and a deterministic abort reclassifies
        // identically anyway.
        if (key && rec.status.outcome != RunOutcome::kCrashed) {
          if (options_.journal) options_.journal->append(rec);
          if (options_.result_cache) options_.result_cache->append(rec);
        }
      }
    }
    if (options_.on_progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      ++finished;
      const CampaignProgress progress{finished, total, &result};
      options_.on_progress(progress);
    }
  };

  run_pool(total, resolve_jobs(options_.jobs, total), run_cell);
  return results;
}

std::vector<RunStatus> Campaign::for_each(
    std::size_t count, int jobs, const std::function<void(std::size_t)>& fn) {
  std::vector<RunStatus> statuses(count);
  run_pool(count, resolve_jobs(jobs, count), [&](std::size_t i) {
    try {
      fn(i);
    } catch (const std::exception& e) {
      statuses[i] = RunStatus::error(e.what());
    } catch (...) {
      statuses[i] = RunStatus::error("unknown exception");
    }
  });
  return statuses;
}

void write_campaign_json(std::ostream& out, const SweepSpec& spec,
                         const std::vector<CellResult>& results) {
  PACC_EXPECTS(spec.cells.size() == results.size());
  out << "{\n  \"schema\": \"pacc-campaign-v1\",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepCell& cell = spec.cells[i];
    const CellResult& r = results[i];
    std::string label, message;
    json_escape(label, r.label);
    json_escape(message, r.status.message);
    // Fault-stat fields are emitted unconditionally (zeros on a fault-free
    // cell) so the schema — and a zero-rate run's artifact bytes — never
    // depend on whether fault injection was compiled in or armed.
    const fault::FaultStats& f = r.report.faults;
    // Governor fields follow the same rule: "none" / zeros on an
    // ungoverned cell, so the schema never depends on the configuration.
    const mpi::GovernorStats& g = r.report.governor;
    const std::string governor_name =
        cell.cluster.governor.enabled
            ? mpi::to_string(cell.cluster.governor.kind)
            : "none";
    char buf[1152];
    std::snprintf(
        buf, sizeof buf,
        "    {\"index\": %zu, \"label\": \"%s\", \"op\": \"%s\", "
        "\"scheme\": \"%s\", \"ranks\": %d, \"ppn\": %d, \"nodes\": %d, "
        "\"message\": %lld, \"iterations\": %d, \"warmup\": %d, "
        "\"status\": \"%s\", \"status_message\": \"%s\", "
        "\"latency_us\": %.3f, \"energy_per_op_j\": %.6f, "
        "\"mean_power_w\": %.3f, "
        "\"collapse_multiplicity\": %d, \"collapse_classes\": %d, "
        "\"fault_drops\": %llu, \"fault_delays\": %llu, "
        "\"fault_retransmits\": %llu, \"fault_abandoned\": %llu, "
        "\"fault_link_flaps\": %llu, \"fault_flows_preempted\": %llu, "
        "\"fault_transition_failures\": %llu, "
        "\"fault_transition_stretches\": %llu, "
        "\"fault_scheme_fallbacks\": %llu, "
        "\"governor\": \"%s\", \"gov_armed_waits\": %llu, "
        "\"gov_short_waits\": %llu, \"gov_downclocks\": %llu, "
        "\"gov_restores\": %llu, \"gov_park_failures\": %llu, "
        "\"gov_restore_failures\": %llu, \"gov_scheme_clamps\": %llu, "
        "\"gov_cap_updates\": %llu}%s\n",
        i, label.c_str(), coll::to_string(cell.bench.op).c_str(),
        coll::to_string(cell.bench.scheme).c_str(), cell.cluster.ranks,
        cell.cluster.ranks_per_node, cell.cluster.nodes,
        static_cast<long long>(cell.bench.message), cell.bench.iterations,
        cell.bench.warmup, to_string(r.status.outcome).c_str(),
        message.c_str(), r.report.latency.us(), r.report.energy_per_op,
        r.report.mean_power, r.report.collapse.multiplicity,
        r.report.collapse.classes, static_cast<unsigned long long>(f.drops),
        static_cast<unsigned long long>(f.delays),
        static_cast<unsigned long long>(f.retransmits),
        static_cast<unsigned long long>(f.messages_abandoned),
        static_cast<unsigned long long>(f.link_flaps),
        static_cast<unsigned long long>(f.flows_preempted),
        static_cast<unsigned long long>(f.transition_failures),
        static_cast<unsigned long long>(f.transition_stretches),
        static_cast<unsigned long long>(f.scheme_fallbacks),
        governor_name.c_str(),
        static_cast<unsigned long long>(g.armed_waits),
        static_cast<unsigned long long>(g.short_waits),
        static_cast<unsigned long long>(g.downclocks),
        static_cast<unsigned long long>(g.restores),
        static_cast<unsigned long long>(g.park_failures),
        static_cast<unsigned long long>(g.restore_failures),
        static_cast<unsigned long long>(g.scheme_clamps),
        static_cast<unsigned long long>(g.cap_updates),
        i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

namespace {

// Line-oriented field extraction, mirroring the tuned-table loader: the
// artifact is emitted one cell object per line, so a per-line scan is a
// complete parser for everything this library writes.

std::optional<std::string> field_string(const std::string& line,
                                        const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos = line.find('"', pos + needle.size());
  if (pos == std::string::npos) return std::nullopt;
  std::string value;
  for (auto at = pos + 1; at < line.size(); ++at) {
    const char c = line[at];
    if (c == '"') return value;
    if (c == '\\' && at + 1 < line.size()) {
      ++at;
      switch (line[at]) {
        case 'n':
          value += '\n';
          break;
        case 'u':
          // \u00XX — the only form json_escape emits.
          if (at + 4 < line.size()) {
            value += static_cast<char>(
                std::strtol(line.substr(at + 1, 4).c_str(), nullptr, 16));
            at += 4;
          }
          break;
        default:
          value += line[at];
      }
      continue;
    }
    value += c;
  }
  return std::nullopt;  // unterminated string
}

std::optional<double> field_double(const std::string& line,
                                   const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  const char* begin = line.c_str() + pos;
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return value;
}

std::string trimmed_line(const std::string& line) {
  std::string t = line;
  t.erase(0, t.find_first_not_of(" \t\r"));
  const auto last = t.find_last_not_of(" \t\r");
  t.erase(last == std::string::npos ? 0 : last + 1);
  return t;
}

}  // namespace

std::optional<LoadedCampaign> load_campaign_json(std::istream& in,
                                                 std::string* error) {
  const auto reject = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
  };
  LoadedCampaign loaded;
  std::string line;
  bool schema_seen = false;
  bool array_closed = false;
  bool object_closed = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string at_line = " at line " + std::to_string(line_no);
    const std::string t = trimmed_line(line);
    if (!schema_seen) {
      if (const auto schema = field_string(line, "schema")) {
        if (*schema != "pacc-campaign-v1") {
          reject("unsupported campaign schema: " + *schema);
          return std::nullopt;
        }
        schema_seen = true;
      } else if (t != "{" && !t.empty()) {
        reject("expected pacc-campaign-v1 schema header, got" + at_line + ": " +
               line);
        return std::nullopt;
      }
      continue;
    }
    if (object_closed) {
      if (t.empty()) continue;
      reject("trailing content after campaign artifact footer" + at_line);
      return std::nullopt;
    }
    if (t == "]") {
      array_closed = true;
      continue;
    }
    if (t == "}") {
      if (!array_closed) {
        reject("campaign artifact closes before its cell array" + at_line);
        return std::nullopt;
      }
      object_closed = true;
      continue;
    }
    if (line.find("\"index\":") != std::string::npos) {
      if (array_closed) {
        reject("cell entry after the closing bracket" + at_line);
        return std::nullopt;
      }
      const auto index = field_double(line, "index");
      const auto label = field_string(line, "label");
      const auto status_name = field_string(line, "status");
      const auto message = field_string(line, "status_message");
      const auto latency = field_double(line, "latency_us");
      const auto energy = field_double(line, "energy_per_op_j");
      const auto power = field_double(line, "mean_power_w");
      if (!index || !label || !status_name || !message || !latency ||
          !energy || !power) {
        reject("malformed campaign cell" + at_line + ": " + line);
        return std::nullopt;
      }
      const auto outcome = parse_run_outcome(*status_name);
      if (!outcome) {
        reject("unknown cell status \"" + *status_name + "\"" + at_line);
        return std::nullopt;
      }
      if (static_cast<std::size_t>(*index) != loaded.cells.size()) {
        reject("cell index " + std::to_string(static_cast<long long>(*index)) +
               " out of order (expected " +
               std::to_string(loaded.cells.size()) + ")" + at_line);
        return std::nullopt;
      }
      LoadedCampaignCell cell;
      cell.index = static_cast<std::size_t>(*index);
      cell.label = *label;
      cell.status = {*outcome, *message};
      cell.latency_us = *latency;
      cell.energy_per_op_j = *energy;
      cell.mean_power_w = *power;
      loaded.cells.push_back(std::move(cell));
      continue;
    }
    if (t == "\"cells\": [" || t.empty()) continue;
    reject("unrecognized content in campaign artifact" + at_line + ": " +
           line);
    return std::nullopt;
  }
  if (!schema_seen) {
    reject("missing pacc-campaign-v1 schema header");
    return std::nullopt;
  }
  if (!object_closed) {
    reject("truncated campaign artifact: missing footer");
    return std::nullopt;
  }
  return loaded;
}

}  // namespace pacc
