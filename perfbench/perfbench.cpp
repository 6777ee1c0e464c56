// Benchmark program for the pacc simulator.
//
//   perfbench --workload paper64|scale4096|campaign|selfcheck --seed N
//             --seconds S --trace 0|1 --tmp DIR
//
// Runs one workload through the public facade (measure_collective,
// Campaign, tune_collective, Simulation, coll::build_plan, sym::decide,
// CellJournal, write/load_campaign_json) and prints one JSON record per
// line on stdout: every cell's outcome and host time, the set-up passes,
// the per-pass wall times and peak RSS, the workload's checks and, with
// --trace 1, the layer counters. run.py turns the records into metrics
// and checks the simulated outputs; this program only runs and measures.
//
// --trace 0 is the measured run: no spans, no simulator tracing, whole
// passes over the workload's cells until --seconds have elapsed.
// --trace 1 is the traced run: one pass with spans around every call into
// a layer, replicas that read the engine and network counters the facade
// hides, and the Chrome trace written to DIR/trace.json at the end.
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "coll/algo.hpp"
#include "coll/barrier.hpp"
#include "coll/plan.hpp"
#include "coll/tuner.hpp"
#include "pacc/campaign.hpp"
#include "pacc/journal.hpp"
#include "pacc/simulation.hpp"
#include "pacc/tuning.hpp"
#include "sym/collapse.hpp"

namespace {

using namespace pacc;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds of `clock` (CLOCK_THREAD_CPUTIME_ID or
/// CLOCK_PROCESS_CPUTIME_ID): user plus system time. Unlike wall time it
/// leaves out the time a thread waited for a CPU or for I/O.
double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------------ records ----

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One flat JSON object, built field by field and printed as one line.
class Record {
 public:
  explicit Record(std::string_view kind) { add("kind", kind); }
  Record& add(std::string_view key, std::string_view v) {
    return raw(key, json_str(v));
  }
  Record& add(std::string_view key, const char* v) {
    return add(key, std::string_view(v));
  }
  Record& add(std::string_view key, double v) { return raw(key, json_num(v)); }
  Record& add(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Record& add(std::string_view key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  Record& add(std::string_view key, int v) {
    return add(key, static_cast<std::int64_t>(v));
  }
  Record& add(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  void emit() {
    std::lock_guard<std::mutex> lock(mu());
    std::cout << "{" << body_ << "}\n" << std::flush;
  }

 private:
  static std::mutex& mu() {
    static std::mutex m;
    return m;
  }
  Record& raw(std::string_view key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += json_str(key) + ":" + v;
    return *this;
  }
  std::string body_;
};

void emit_counter(std::string_view name, double value) {
  Record("counter").add("name", name).add("value", value).emit();
}

void emit_check(std::string_view name, bool ok, std::string_view detail) {
  Record("check").add("name", name).add("ok", ok).add("detail", detail).emit();
}

// -------------------------------------------------------------- spans ----

/// Spans recorded around the calls into each layer, kept in memory and
/// written as Chrome-trace JSON when the traced run ends. A null recorder
/// (the measured run) makes every Scope a no-op.
class Spans {
 public:
  Spans() : origin_(Clock::now()) {}

  int begin(std::string_view name, int parent, std::int64_t cell) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.cell = cell;
    s.tid = thread_track();
    s.t0 = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    s.id = static_cast<int>(spans_.size()) + 1;
    spans_.push_back(s);
    return s.id;
  }

  void end(int id) {
    const auto t1 = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id - 1)].t1 = t1;
  }

  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\"perfbench\"}}";
    for (const Span& s : spans_) {
      const double ts = std::chrono::duration<double, std::micro>(
                            s.t0 - origin_)
                            .count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.t1 - s.t0).count();
      out << ",\n{\"name\":" << json_str(s.name)
          << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << json_num(ts) << ",\"dur\":" << json_num(dur)
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"cell\":" << s.cell << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    int id = 0;
    int parent = 0;
    std::int64_t cell = -1;
    int tid = 0;
    Clock::time_point t0;
    Clock::time_point t1;
  };

  /// Small per-thread track numbers: the main thread is track 0, each
  /// Campaign worker gets the next free one on its first span.
  static int thread_track() {
    static std::atomic<int> next{0};
    thread_local const int track = next.fetch_add(1);
    return track;
  }

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Spans* spans, std::string_view name, int parent = 0,
        std::int64_t cell = -1)
      : spans_(spans), id_(spans ? spans->begin(name, parent, cell) : 0) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Spans* spans_;
  int id_;
};

// --------------------------------------------------------- host speed ----
//
// The host's speed drifts. On a VM shared with other tenants every cell
// runs up to ~1.4x slower at once, in spells of seconds, and the spells
// move whole runs. The measured run therefore times a fixed piece of
// reference work throughout (after each cell on one worker, before each
// cell on a Campaign worker, after each set-up batch), and run.py scales
// the run's CPU times by the reference's median time in the run. The
// reference shares no code with the simulator and runs in processes of
// its own, so a change to the simulator still shows in full.

/// Fixed host work shaped like the simulator's hot paths: an event heap,
/// hash-map updates, short-lived allocations and sweeps over freshly
/// mapped pages. A pure arithmetic loop does not slow down in the spells;
/// this mix does. Returns a checksum so the work is not elided.
std::uint64_t reference_work() {
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_map<std::uint32_t, double> rates;
  constexpr std::size_t kShare = std::size_t{1} << 16;
  // Mapped here rather than taken from malloc, whose choice between heap
  // and mmap depends on what the process freed before.
  void* mem = mmap(nullptr, kShare * sizeof(double), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return 0;
  double* share = static_cast<double*>(mem);
  std::fill(share, share + kShare, 1.0);
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  std::uint64_t sum = 0;
  for (int i = 0; i < 12000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    heap.emplace(static_cast<double>(x >> 11) * 0x1p-53,
                 static_cast<std::uint32_t>(x >> 32));
    if (heap.size() > 4096) {
      sum += heap.top().second;
      heap.pop();
    }
    rates[static_cast<std::uint32_t>(x >> 40) & 0xffffu] += 1.0;
    if ((i & 15) == 0) {
      std::vector<std::uint64_t> payload(64 + (x & 1023), x);
      sum += payload[payload.size() / 2];
    }
    if ((i & 1023) == 0) {
      double total = 0.0;
      for (std::size_t k = 0; k < kShare; ++k) {
        share[k] = share[k] * 0.999 + 1e-3;
        total += share[k];
      }
      sum += static_cast<std::uint64_t>(total);
    }
  }
  munmap(mem, kShare * sizeof(double));
  return sum + rates.size();
}

/// The median CPU seconds of `calls` reference_work() calls on the calling
/// thread.
double time_reference(int calls) {
  static std::atomic<std::uint64_t> sink{0};
  std::vector<double> times;
  for (int i = 0; i < calls; ++i) {
    const double t0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    sink += reference_work();
    times.push_back(cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - t0);
  }
  std::nth_element(times.begin(), times.begin() + calls / 2, times.end());
  return times[calls / 2];
}

/// Child processes that run time_reference() on request. They are forked
/// before the workload allocates much or starts a thread, so their heap
/// and address space stay the same whatever the simulator does here. Run
/// in this process, the reference took longer after scale4096's cells,
/// and its median moved by up to 30% from run to run while the cells' own
/// CPU times held within 2%.
class ReferencePool {
 public:
  explicit ReferencePool(int processes) {
    for (int i = 0; i < processes; ++i) {
      int request[2];
      int reply[2];
      if (pipe(request) != 0) break;
      if (pipe(reply) != 0) {
        close(request[0]);
        close(request[1]);
        break;
      }
      const pid_t parent = getpid();
      const pid_t pid = fork();
      if (pid == 0) {
        close(request[1]);
        close(reply[0]);
        for (const Child& c : children_) {
          close(c.request);
          close(c.reply);
        }
        serve(parent, request[0], reply[1]);
      }
      close(request[0]);
      close(reply[1]);
      if (pid < 0) {
        close(request[1]);
        close(reply[0]);
        break;
      }
      free_.push_back(children_.size());
      children_.push_back({pid, request[1], reply[0]});
    }
  }

  ReferencePool(const ReferencePool&) = delete;
  ReferencePool& operator=(const ReferencePool&) = delete;

  /// Closes every child's requests, so it exits, and waits for it.
  ~ReferencePool() {
    for (const Child& c : children_) {
      close(c.request);
      close(c.reply);
    }
    for (const Child& c : children_) {
      while (waitpid(c.pid, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
  }

  /// time_reference(calls) in a free child, while the calling thread
  /// waits; in this process if no child could be started.
  double time(int calls) {
    std::unique_lock<std::mutex> lock(mu_);
    if (children_.empty()) {
      lock.unlock();
      return time_reference(calls);
    }
    freed_.wait(lock, [this] { return !free_.empty(); });
    const std::size_t k = free_.back();
    free_.pop_back();
    lock.unlock();
    const Child& c = children_[k];
    const std::int32_t n = calls;
    double seconds = 0.0;
    const bool ok = write(c.request, &n, sizeof n) == sizeof n &&
                    read(c.reply, &seconds, sizeof seconds) == sizeof seconds;
    lock.lock();
    free_.push_back(k);
    freed_.notify_one();
    lock.unlock();
    return ok ? seconds : time_reference(calls);
  }

 private:
  struct Child {
    pid_t pid;
    int request;
    int reply;
  };

  [[noreturn]] static void serve(pid_t parent, int request, int reply) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(0);
    // Not the benchmark's standard output: the caller reads that to its
    // end, which must not wait for this process.
    const int null = open("/dev/null", O_RDWR);
    for (const int fd : {0, 1, 2}) dup2(null, fd);
    std::int32_t calls = 0;
    while (read(request, &calls, sizeof calls) == sizeof calls) {
      const double seconds = time_reference(calls);
      if (write(reply, &seconds, sizeof seconds) != sizeof seconds) break;
    }
    _exit(0);
  }

  std::mutex mu_;
  std::condition_variable freed_;
  std::vector<Child> children_;
  std::vector<std::size_t> free_;
};

/// Where the measured run times the reference work; set in run().
ReferencePool* reference_pool = nullptr;

/// The median CPU seconds of `calls` reference_work() calls.
double probe_host_speed(int calls = 1) {
  return reference_pool->time(calls);
}

// ------------------------------------------------------ seeded inputs ----

constexpr std::uint64_t kDefaultSeed = 0;
constexpr int kCampaignWorkers = 4;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_key(std::string_view key) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Everything the seed decides. The default seed gives the nominal sizes,
/// the canonical cell order and the fault seed of the extension benches,
/// so its outputs can be checked against committed expected values.
class Inputs {
 public:
  explicit Inputs(std::uint64_t seed) : seed_(seed) {}

  bool nominal() const { return seed_ == kDefaultSeed; }

  /// The inputs of pass `pass`. Odd passes mirror every jitter draw
  /// (nominal − δ instead of nominal + δ): each pass runs seeded,
  /// non-nominal sizes, yet the work of a run stays close to the nominal
  /// work whatever the seed, so seeds do not spread the host-time figures.
  /// Each pass also gets its own cell order, so the scheduling tail of one
  /// order does not set a whole run's figures.
  Inputs for_pass(int pass) const {
    Inputs p = *this;
    p.mirror_ = pass % 2 != 0;
    p.pass_ = pass;
    return p;
  }

  /// `nominal` ± up to 1/8, rounded to 8 bytes; one draw per `key`, so
  /// every scheme at one size point gets the same jittered size.
  Bytes size(Bytes nominal, std::string_view key) const {
    if (this->nominal()) return nominal;
    const std::uint64_t r = splitmix64(seed_ ^ hash_key(key));
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;  // [0, 1)
    const double eighth = static_cast<double>(nominal) / 8.0;
    const double delta = (mirror_ ? -1.0 : 1.0) * (2.0 * u - 1.0) * eighth;
    const auto words =
        static_cast<Bytes>(delta / 8.0 + (delta < 0 ? -0.5 : 0.5));
    return std::max<Bytes>(8, nominal + words * 8);
  }

  template <class T>
  void shuffle(std::vector<T>& items) const {
    if (nominal()) return;
    // pass_ >= -1: the warm-up pass is -1.
    std::uint64_t state = splitmix64(
        seed_ ^ 0x5eedULL ^ splitmix64(static_cast<std::uint64_t>(pass_ + 1)));
    for (std::size_t i = items.size(); i > 1; --i) {
      state = splitmix64(state);
      std::swap(items[i - 1], items[state % i]);
    }
  }

  std::uint64_t fault_seed() const {
    return nominal() ? 11 : splitmix64(seed_ ^ 0xfa17ULL) % 1000000 + 1;
  }

 private:
  std::uint64_t seed_;
  bool mirror_ = false;
  int pass_ = 0;
};

// -------------------------------------------------------------- cells ----

struct Cell {
  std::string label;
  std::string group;
  Bytes nominal = 0;
  /// Fault-slice cells: a classified kFaulted / kUnreachable is expected
  /// too, not only kOk.
  bool classified = false;
  ClusterConfig cluster;
  CollectiveBenchSpec bench;
};

CollectiveBenchSpec spec_of(coll::Op op, coll::PowerScheme scheme, Bytes size,
                            int iterations, int warmup) {
  CollectiveBenchSpec spec;
  spec.op = op;
  spec.scheme = scheme;
  spec.message = size;
  spec.iterations = iterations;
  spec.warmup = warmup;
  return spec;
}

ClusterConfig flat_cluster(int ranks, int ppn) {
  ClusterConfig cfg;
  cfg.nodes = ranks / ppn;
  cfg.ranks = ranks;
  cfg.ranks_per_node = ppn;
  return cfg;
}

constexpr Bytes kKiB = 1024;
constexpr Bytes kMiB = 1024 * 1024;
constexpr Bytes kPaperSizes[] = {16 * kKiB, 64 * kKiB, 256 * kKiB, kMiB};

/// The paper's testbed: 8 nodes × 8 ranks on one switch, run 1:1.
std::vector<Cell> paper64_cells(const Inputs& in) {
  std::vector<Cell> cells;
  for (const coll::Op op : {coll::Op::kAlltoall, coll::Op::kBcast}) {
    for (const coll::PowerScheme scheme : coll::kAllSchemes) {
      for (const Bytes nominal : kPaperSizes) {
        const std::string point =
            coll::to_string(op) + "/" + std::to_string(nominal);
        Cell c;
        c.label = coll::to_string(op) + "/" + coll::to_string(scheme) + "/" +
                  std::to_string(nominal);
        c.group = "paper";
        c.nominal = nominal;
        c.cluster = flat_cluster(64, 8);
        c.cluster.collapse_multiplicity = 1;
        c.bench = spec_of(op, scheme, in.size(nominal, point), 10, 2);
        cells.push_back(std::move(c));
      }
    }
  }
  in.shuffle(cells);
  return cells;
}

/// 4096 ranks (512 nodes × 8), collapsed 16× on both fabrics.
std::vector<Cell> scale4096_cells(const Inputs& in) {
  std::vector<Cell> cells;
  for (const bool dragonfly : {false, true}) {
    const std::string fabric = dragonfly ? "dragonfly" : "fattree";
    for (const coll::PowerScheme scheme :
         {coll::PowerScheme::kNone, coll::PowerScheme::kProposed}) {
      Cell c;
      c.label = fabric + "/" + coll::to_string(scheme);
      c.group = "scale";
      c.nominal = kMiB;
      c.cluster = flat_cluster(4096, 8);
      if (dragonfly) {
        c.cluster.dragonfly.routers_per_group = 8;
        c.cluster.dragonfly.nodes_per_router = 4;
      } else {
        c.cluster.fabric = {{32, 2.0}};
      }
      c.cluster.collapse_multiplicity = 16;
      c.bench = spec_of(coll::Op::kAlltoall, scheme, in.size(kMiB, fabric), 1,
                        0);
      cells.push_back(std::move(c));
    }
  }
  in.shuffle(cells);
  return cells;
}

struct Shape {
  const char* name;
  int ranks;
  int ppn;
  hw::AffinityPolicy affinity;
};

constexpr Shape kCampaignShapes[] = {
    {"64x8bunch", 64, 8, hw::AffinityPolicy::kBunch},
    {"64x8scatter", 64, 8, hw::AffinityPolicy::kScatter},
    {"48x8", 48, 8, hw::AffinityPolicy::kBunch},
    {"32x4", 32, 4, hw::AffinityPolicy::kBunch},
};

/// The Campaign's cells: the capability sweep (every op × supported scheme
/// at 1–64 KiB) on each shape, a seeded fault slice and a slack-governor
/// slice.
std::vector<Cell> campaign_cells(const Inputs& in) {
  // The seed orders whole blocks: each shape's sweep in the sweep's own
  // order, the fault slice and the governor slice. Which cells overlap on
  // the workers then stays alike from seed to seed and pass to pass: the
  // heaviest cells (reduce_scatter at 64 KiB on 64×8, ~0.4 GB each) always
  // run with their own shape's neighbours, so peak RSS and the pass's
  // scheduling tail do not hang on which cells the order puts side by side.
  std::vector<std::vector<Cell>> blocks;
  for (const Shape& shape : kCampaignShapes) {
    std::vector<Cell>& block = blocks.emplace_back();
    for (const coll::Op op : coll::kAllOps) {
      for (const coll::PowerScheme scheme : coll::kAllSchemes) {
        if (!coll::supported(op, scheme)) continue;
        for (const Bytes nominal : {kKiB, 4 * kKiB, 16 * kKiB, 64 * kKiB}) {
          Cell c;
          c.label = std::string(shape.name) + "/" + coll::to_string(op) + "/" +
                    coll::to_string(scheme) + "/" + std::to_string(nominal);
          c.group = "sweep";
          c.nominal = nominal;
          c.cluster = flat_cluster(shape.ranks, shape.ppn);
          c.cluster.affinity = shape.affinity;
          c.bench = spec_of(
              op, scheme,
              in.size(nominal, std::string(shape.name) + "/" +
                                   std::to_string(nominal)),
              5, 2);
          block.push_back(std::move(c));
          if (op == coll::Op::kBarrier) break;  // size is meaningless
        }
      }
    }
  }
  fault::FaultSpec faults =
      *fault::FaultSpec::parse("drop=0.002,flap=10,tfail=0.1");
  faults.seed = in.fault_seed();
  std::vector<Cell>& faulted = blocks.emplace_back();
  for (const Bytes nominal : {16 * kKiB, 64 * kKiB}) {
    for (const coll::PowerScheme scheme :
         {coll::PowerScheme::kNone, coll::PowerScheme::kProposed}) {
      Cell c;
      c.label = "fault/alltoall/" + coll::to_string(scheme) + "/" +
                std::to_string(nominal);
      c.group = "fault";
      c.nominal = nominal;
      c.classified = true;
      c.cluster = flat_cluster(64, 8);
      c.cluster.faults = faults;
      c.bench = spec_of(coll::Op::kAlltoall, scheme,
                        in.size(nominal, "fault/" + std::to_string(nominal)),
                        2, 1);
      faulted.push_back(std::move(c));
    }
  }
  std::vector<Cell>& slack = blocks.emplace_back();
  for (const Bytes nominal : {256 * kKiB, kMiB}) {
    for (const coll::Op op : {coll::Op::kAlltoall, coll::Op::kBcast}) {
      Cell c;
      c.label = "slack/" + coll::to_string(op) + "/none/" +
                std::to_string(nominal);
      c.group = "governor";
      c.nominal = nominal;
      c.cluster = flat_cluster(64, 8);
      c.cluster.governor.enabled = true;
      c.cluster.governor.kind = mpi::GovernorKind::kSlack;
      c.cluster.governor.slack_threshold = Duration::micros(100.0);
      c.bench = spec_of(op, coll::PowerScheme::kNone,
                        in.size(nominal, "slack/" + std::to_string(nominal)),
                        3, 1);
      slack.push_back(std::move(c));
    }
  }
  in.shuffle(blocks);
  std::vector<Cell> cells;
  for (std::vector<Cell>& block : blocks) {
    for (Cell& c : block) cells.push_back(std::move(c));
  }
  return cells;
}

/// One unsupported op × scheme cell beside one tiny supported cell: run.py
/// must count the first as a failure and still finish the workload.
std::vector<Cell> selfcheck_cells() {
  std::vector<Cell> cells(2);
  cells[0].label = "gather/proposed/1024";
  cells[0].cluster = flat_cluster(16, 8);
  cells[0].bench = spec_of(coll::Op::kGather, coll::PowerScheme::kProposed,
                           kKiB, 1, 0);
  cells[1].label = "barrier/none/0";
  cells[1].cluster = flat_cluster(16, 8);
  cells[1].bench =
      spec_of(coll::Op::kBarrier, coll::PowerScheme::kNone, 0, 1, 0);
  for (Cell& c : cells) {
    c.group = "selfcheck";
    c.nominal = c.bench.message;
  }
  return cells;
}

std::uint64_t energy_bits(double joules) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &joules, sizeof bits);
  return bits;
}

void emit_cell(int pass, const Cell& cell, const RunStatus& status,
               const CollectiveReport* report, double host_s,
               std::string_view source, double cpu_s, double probe_s) {
  char bits[20] = "";
  Record r("cell");
  r.add("pass", pass)
      .add("label", cell.label)
      .add("group", cell.group)
      .add("op", coll::to_string(cell.bench.op))
      .add("scheme", coll::to_string(cell.bench.scheme))
      .add("bytes", static_cast<std::int64_t>(cell.bench.message))
      .add("nominal", static_cast<std::int64_t>(cell.nominal))
      .add("classified", cell.classified)
      .add("status", to_string(status.outcome))
      .add("message", status.message)
      .add("host_s", host_s)
      .add("source", source);
  if (probe_s > 0) r.add("cpu_s", cpu_s).add("probe_s", probe_s);
  if (cell.cluster.faults.active()) {
    r.add("fault_seed", cell.cluster.faults.seed);
  }
  if (report != nullptr && status.usable()) {
    std::snprintf(bits, sizeof bits, "%016" PRIx64,
                  energy_bits(report->energy_per_op));
    const fault::FaultStats& f = report->faults;
    r.add("latency_ns", static_cast<std::int64_t>(report->latency.ns()))
        .add("energy_bits", bits)
        .add("energy_j", report->energy_per_op)
        .add("rep_flows", report->collapse.representative_flows)
        .add("logical_flows", report->collapse.logical_flows())
        .add("multiplicity", report->collapse.multiplicity)
        .add("sim_ranks", report->collapse.simulated_ranks)
        .add("drops", f.drops)
        .add("retransmits", f.retransmits)
        .add("link_flaps", f.link_flaps)
        .add("scheme_fallbacks", f.scheme_fallbacks)
        .add("gov_downclocks", report->governor.downclocks)
        .add("gov_restores", report->governor.restores);
  }
  r.emit();
}

/// measure_collective with every way it can fail turned into a status.
CollectiveReport measure_guarded(const Cell& cell) {
  try {
    return measure_collective(cell.cluster, cell.bench);
  } catch (const std::exception& e) {
    CollectiveReport report;
    report.status = RunStatus::error(std::string("exception: ") + e.what());
    return report;
  } catch (...) {
    CollectiveReport report;
    report.status = RunStatus::error("unknown exception");
    return report;
  }
}

// -------------------------------------------------------------- setup ----

/// Stands up each distinct cluster of the workload the way
/// measure_collective does: sym::decide, then the Simulation constructor
/// on the effective config. Emits one record per repetition; with `probe`,
/// each carries the reference time taken after all the repetitions (one
/// repetition can take well under the reference).
void setup_pass(const std::vector<Cell>& cells, int reps, bool probe,
                Spans* spans) {
  std::vector<const Cell*> distinct;
  for (const Cell& c : cells) {
    const bool seen = std::any_of(
        distinct.begin(), distinct.end(), [&](const Cell* d) {
          return d->cluster.ranks == c.cluster.ranks &&
                 d->cluster.ranks_per_node == c.cluster.ranks_per_node &&
                 d->cluster.affinity == c.cluster.affinity &&
                 d->cluster.fabric == c.cluster.fabric &&
                 d->cluster.dragonfly == c.cluster.dragonfly &&
                 d->cluster.faults.active() == c.cluster.faults.active() &&
                 d->cluster.governor.enabled == c.cluster.governor.enabled;
        });
    if (!seen) distinct.push_back(&c);
  }
  std::vector<Record> records;
  for (int rep = 0; rep < reps; ++rep) {
    Scope setup(spans, "setup");
    double decide_s = 0.0;
    double ctor_s = 0.0;
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    for (const Cell* c : distinct) {
      sym::CollapseDecision decision;
      {
        Scope s(spans, "decide", setup.id());
        const auto a = Clock::now();
        decision = sym::decide(c->cluster, c->bench);
        decide_s += seconds_between(a, Clock::now());
      }
      ClusterConfig effective = c->cluster;
      effective.synthetic_payloads = true;
      effective.collapse_multiplicity = decision.multiplicity;
      Scope s(spans, "simulation_ctor", setup.id());
      const auto a = Clock::now();
      Simulation sim(effective);
      ctor_s += seconds_between(a, Clock::now());
    }
    records.emplace_back("setup");
    records.back()
        .add("rep", rep)
        .add("host_s", seconds_between(t0, Clock::now()))
        .add("cpu_s", cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0)
        .add("decide_s", decide_s)
        .add("ctor_s", ctor_s)
        .add("clusters", static_cast<std::int64_t>(distinct.size()));
  }
  const double probe_s = probe ? probe_host_speed() : 0.0;
  for (Record& r : records) {
    if (probe) r.add("probe_s", probe_s);
    r.emit();
  }
}

// ------------------------------------------------- single-worker loops ----

/// One closed-loop pass over `cells` on the calling thread. With
/// `probe_calls` > 0, the reference work runs that many times after each
/// cell and the cell records their median. Returns each cell's
/// representative flow count, which the replicas must match.
std::map<std::string, std::uint64_t> serial_pass(
    int pass, const std::vector<Cell>& cells,
    const std::shared_ptr<coll::PlanCache>& plans, int probe_calls,
    Spans* spans, int parent) {
  std::map<std::string, std::uint64_t> flows;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Cell cell = cells[i];
    cell.cluster.plan_cache = plans;
    Scope s(spans, "cell", parent, static_cast<std::int64_t>(i));
    const auto a = Clock::now();
    const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const CollectiveReport report = measure_guarded(cell);
    const double host_s = seconds_between(a, Clock::now());
    const double cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    emit_cell(pass, cell, report.status, &report, host_s, "run", cpu_s,
              probe_calls > 0 ? probe_host_speed(probe_calls) : 0.0);
    flows[cell.label] = report.collapse.representative_flows;
  }
  Record("pass")
      .add("pass", pass)
      .add("wall_s", seconds_between(t0, Clock::now()))
      .add("workers", 1)
      .emit();
  return flows;
}

void emit_plan_cache(const coll::PlanCache& plans) {
  emit_counter("coll.plan_cache_hits", static_cast<double>(plans.hits()));
  emit_counter("coll.plan_cache_misses", static_cast<double>(plans.misses()));
  emit_counter("coll.plan_cache_evictions",
               static_cast<double>(plans.evictions()));
  emit_counter("coll.plan_cache_peak_bytes",
               static_cast<double>(plans.peak_bytes()));
}

// ----------------------------------------------------------- replicas ----

struct Arena {
  std::unique_ptr<std::byte[]> bytes;
  std::size_t size = 0;
  std::span<std::byte> take(std::size_t n) {
    if (n > size) {
      bytes.reset(new std::byte[n]);
      size = n;
    }
    return {bytes.get(), n};
  }
};

/// Re-runs `cell` as measure_collective would — same decision, same
/// effective config, warmup, barriers and timed loop — but on a Simulation
/// this program owns, so the engine, network and runtime counters the
/// facade hides can be read. The replica is faithful only when it started
/// exactly the flows the measured cell reported.
bool replicate(const Cell& cell, std::uint64_t expected_flows, Arena& send,
               Arena& recv, std::map<std::string, double>& sums,
               Spans* spans, int parent) {
  Scope s(spans, "replica", parent);
  const sym::CollapseDecision decision = sym::decide(cell.cluster, cell.bench);
  ClusterConfig effective = cell.cluster;
  effective.synthetic_payloads = true;
  effective.collapse_multiplicity = decision.multiplicity;
  const auto t0 = Clock::now();
  Simulation sim(effective);
  const CollectiveBenchSpec& spec = cell.bench;
  const coll::AlgoDesc& algo = coll::default_algorithm(spec.op);
  const auto P = static_cast<std::size_t>(cell.cluster.ranks);
  const Bytes block = round_to_doubles(spec.message);
  const auto m = static_cast<std::size_t>(block);
  const bool personalized = spec.op == coll::Op::kAlltoall;
  const std::span<std::byte> sbuf = send.take(personalized ? P * m : m);
  const std::span<std::byte> rbuf =
      personalized ? recv.take(P * m) : std::span<std::byte>{};
  const RunReport run = sim.run([&](mpi::Rank& self) -> sim::Task<> {
    mpi::Comm& world = sim.runtime().world();
    coll::AlgoCall call;
    call.send = sbuf;
    call.recv = rbuf;
    call.block = block;
    call.root = spec.root;
    call.scheme = spec.scheme;
    for (int i = 0; i < spec.warmup; ++i) co_await algo.exec(self, world, call);
    co_await coll::barrier(self, world);
    for (int i = 0; i < spec.iterations; ++i) {
      co_await algo.exec(self, world, call);
    }
    co_await coll::barrier(self, world);
  });
  const double host = seconds_between(t0, Clock::now());
  const net::FlowNetwork& net = sim.network();
  const sim::Engine& engine = sim.engine();
  sums["replica.host_s"] += host;
  sums["sim.events_dispatched"] +=
      static_cast<double>(engine.events_dispatched());
  sums["sim.cancelled_backlog"] +=
      static_cast<double>(engine.cancelled_backlog());
  sums["net.flows_started"] += static_cast<double>(net.flows_started());
  sums["net.rate_recomputes"] += static_cast<double>(net.rate_recomputes());
  sums["net.recompute_flushes"] += static_cast<double>(net.recompute_flushes());
  sums["net.coalesced_recomputes"] +=
      static_cast<double>(net.coalesced_recomputes());
  sums["net.noop_recomputes"] += static_cast<double>(net.noop_recomputes());
  sums["net.completion_reschedules"] +=
      static_cast<double>(net.completion_reschedules());
  sums["net.completion_batches"] +=
      static_cast<double>(net.completion_batches());
  sums["net.batched_completions"] +=
      static_cast<double>(net.batched_completions());
  sums["net.bytes_delivered"] += static_cast<double>(net.bytes_delivered());
  sums["mpi.deliveries"] += static_cast<double>(sim.runtime().deliveries());
  return run.status.ok() && net.flows_started() == expected_flows;
}

/// Replicates every cell of a traced serial pass and emits the sums.
void replicate_all(const std::vector<Cell>& cells,
                   const std::map<std::string, std::uint64_t>& flows,
                   Spans* spans, int parent) {
  Arena send;
  Arena recv;
  std::map<std::string, double> sums;
  int faithful = 0;
  std::string unfaithful;
  for (const Cell& cell : cells) {
    const auto it = flows.find(cell.label);
    if (it != flows.end() &&
        replicate(cell, it->second, send, recv, sums, spans, parent)) {
      ++faithful;
    } else {
      unfaithful += " " + cell.label;
    }
  }
  emit_check("replicas_faithful", unfaithful.empty(),
             unfaithful.empty() ? std::to_string(faithful) + " replicas"
                                : "flow count differs:" + unfaithful);
  for (const auto& [name, value] : sums) {
    if (name != "replica.host_s") emit_counter(name, value);
  }
  const double events = sums["sim.events_dispatched"];
  emit_counter("sim.host_ns_per_event",
               events > 0 ? sums["replica.host_s"] * 1e9 / events : 0.0);
}

// ----------------------------------------------------------- layers ----

/// coll::build_plan timed directly on the largest communicator of the
/// workload, for the plan kinds its cells use (median of `reps`).
void time_plan_build(const ClusterConfig& largest, Spans* spans, int parent) {
  ClusterConfig cfg = largest;
  cfg.synthetic_payloads = true;
  Simulation sim(cfg);
  const mpi::Comm& world = sim.runtime().world();
  const coll::PlanKind kinds[] = {
      coll::PlanKind::kAlltoallPairwise, coll::PlanKind::kPowerExchange,
      coll::PlanKind::kBcastBinomial, coll::PlanKind::kBarrierDissemination};
  std::vector<double> totals;
  for (int rep = 0; rep < 7; ++rep) {
    double total = 0.0;
    for (const coll::PlanKind kind : kinds) {
      Scope s(spans, "plan_build", parent);
      const auto t0 = Clock::now();
      const coll::PlanPtr plan = coll::build_plan(world, kind);
      total += seconds_between(t0, Clock::now());
    }
    totals.push_back(total);
  }
  std::sort(totals.begin(), totals.end());
  emit_counter("coll.plan_build_ms", totals[totals.size() / 2] * 1e3);
}

/// Traced (ObsOptions::trace) over untraced host time of one 1:1 proposed
/// cell, and the P/T transition spans in its Chrome trace.
void trace_overhead(const Cell& base, Spans* spans, int parent) {
  Cell cell = base;
  cell.cluster.plan_cache = nullptr;
  cell.cluster.collapse_multiplicity = 1;  // a traced run is always 1:1
  double times[2] = {0.0, 0.0};
  std::string trace_json;
  for (int traced = 0; traced < 2; ++traced) {
    cell.cluster.obs.trace = traced == 1;
    Scope s(spans, traced ? "cell_obs_traced" : "cell_obs_untraced", parent);
    const auto t0 = Clock::now();
    const CollectiveReport report = measure_guarded(cell);
    times[traced] = seconds_between(t0, Clock::now());
    if (traced) trace_json = report.trace_json;
  }
  std::size_t transitions = 0;
  for (std::size_t pos = 0;
       (pos = trace_json.find("\"cat\":\"power\"", pos)) != std::string::npos;
       ++pos) {
    ++transitions;
  }
  emit_counter("obs.trace_overhead_ratio",
               times[0] > 0 ? times[1] / times[0] : 0.0);
  emit_counter("hw.power_transitions", static_cast<double>(transitions));
}

/// Resets this process's VmHWM to its current RSS, so that the next
/// reading is the peak of what ran in between.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// A field of /proc/self/status such as "VmHWM:", in bytes (0 where /proc
/// is missing).
std::uint64_t proc_status_bytes(std::string_view field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(field, 0) == 0) {
      return std::stoull(line.substr(field.size())) * 1024;
    }
  }
  return 0;
}

void emit_proc_counters() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  emit_counter("proc.minor_faults", static_cast<double>(ru.ru_minflt));
  emit_counter("proc.system_s", static_cast<double>(ru.ru_stime.tv_sec) +
                                    ru.ru_stime.tv_usec * 1e-6);
}

// ------------------------------------------------------------ campaign ----

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One pass of the campaign workload: the journaled sweep on 4 workers,
/// two tuner races, the artifact round trip and a resume that must
/// reproduce the artifact byte for byte. With `probe`, every sweep cell
/// records the reference time its worker took just before it.
void campaign_pass(int pass, const std::vector<Cell>& cells, const Inputs& in,
                   const std::string& dir, bool probe,
                   bool emit_layer_counters, Spans* spans) {
  constexpr int kWorkers = kCampaignWorkers;
  const auto wall0 = Clock::now();
  Scope top(spans, "campaign_pass");
  const auto plans = std::make_shared<coll::PlanCache>();
  SweepSpec sweep;
  for (const Cell& c : cells) {
    ClusterConfig cluster = c.cluster;
    cluster.plan_cache = plans;
    sweep.add(cluster, c.bench, c.label);
  }
  const std::string journal_path = dir + "/journal-" + std::to_string(pass);
  std::filesystem::remove(journal_path);
  std::string error;
  std::shared_ptr<CellJournal> journal =
      CellJournal::open(journal_path, &error);
  if (!journal) {
    emit_check("journal_open", false, error);
    return;
  }

  std::vector<CellResult> results;
  std::vector<double> host(cells.size(), 0.0);
  std::vector<double> cpu0(cells.size(), 0.0);
  std::vector<double> cpu(cells.size(), 0.0);
  std::vector<double> probe_s(cells.size(), 0.0);
  double sweep_cpu = 0.0;
  double sweep_wall = 0.0;
  {
    Scope run_scope(spans, "campaign_run", top.id());
    // Per-cell host time: before_cell and on_progress both run on the
    // worker that executes the cell, around execute_cell and the journal
    // append.
    std::vector<Clock::time_point> started(cells.size());
    std::vector<int> span_ids(cells.size(), 0);
    CampaignOptions opts;
    opts.jobs = kWorkers;
    opts.journal = journal;
    opts.before_cell = [&](std::size_t i) {
      if (probe) probe_s[i] = probe_host_speed();
      if (spans != nullptr) {
        span_ids[i] = spans->begin("cell", run_scope.id(),
                                   static_cast<std::int64_t>(i));
      }
      started[i] = Clock::now();
      cpu0[i] = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    };
    opts.on_progress = [&](const CampaignProgress& p) {
      const std::size_t i = p.last->index;
      host[i] = seconds_between(started[i], Clock::now());
      cpu[i] = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0[i];
      if (spans != nullptr && span_ids[i] != 0) spans->end(span_ids[i]);
    };
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    results = Campaign(sweep, opts).run();
    sweep_cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - c0;
    sweep_wall = seconds_between(t0, Clock::now());
  }
  for (const CellResult& r : results) {
    // The Campaign seeds a faulted cell from its index in the sweep, which
    // the seed reorders from pass to pass; record the seed it ran with.
    Cell effective = cells[r.index];
    if (effective.cluster.faults.active()) {
      effective.cluster.faults.seed =
          fault::derive_cell_seed(effective.cluster.faults.seed, r.index);
    }
    emit_cell(pass, effective, r.status, &r.report, host[r.index], "run",
              cpu[r.index], probe_s[r.index]);
  }

  // Tuner races share the plan cache; a fresh table per pass races every
  // candidate again.
  double race_s = 0.0;
  int raced = 0;
  for (const coll::Op op : {coll::Op::kBcast, coll::Op::kReduce}) {
    Scope s(spans, "tuner_race", top.id());
    coll::Tuner tuner;
    TuneRequest req;
    req.cluster = flat_cluster(64, 8);
    req.cluster.plan_cache = plans;
    req.op = op;
    req.scheme = coll::PowerScheme::kNone;
    for (const Bytes nominal : kPaperSizes) {
      req.sizes.push_back(in.size(nominal, "race/" + std::to_string(nominal)));
    }
    const auto t0 = Clock::now();
    TuneReport report;
    std::string failure;
    try {
      report = tune_collective(tuner, req, kWorkers);
    } catch (const std::exception& e) {
      failure = e.what();
    }
    race_s += seconds_between(t0, Clock::now());
    raced += report.raced_cells;
    if (!failure.empty()) {
      emit_check("tuner_race_" + coll::to_string(op), false, failure);
    }
    for (std::size_t k = 0; k < report.cells.size(); ++k) {
      const TuneCellResult& tc = report.cells[k];
      for (const TuneCandidateResult& cand : tc.candidates) {
        Record r("cell");
        r.add("pass", pass)
            .add("label", "race/" + coll::to_string(op) + "/" +
                              std::to_string(kPaperSizes[k]) + "/" +
                              cand.algo + ":" + std::to_string(cand.seg))
            .add("group", "race")
            .add("op", coll::to_string(op))
            .add("scheme", coll::to_string(req.scheme))
            .add("bytes", static_cast<std::int64_t>(tc.message))
            .add("nominal", static_cast<std::int64_t>(kPaperSizes[k]))
            .add("classified", false)
            .add("status", to_string(cand.status.outcome))
            .add("message", cand.status.message)
            .add("source", "race")
            .add("winner", cand.algo == tc.decision.algo &&
                               cand.seg == tc.decision.seg);
        if (cand.status.ok()) {
          r.add("latency_ns", static_cast<std::int64_t>(cand.latency.ns()));
        }
        r.emit();
      }
    }
  }

  const std::string artifact_path =
      dir + "/campaign-" + std::to_string(pass) + ".json";
  double write_s = 0.0;
  double load_s = 0.0;
  {
    Scope s(spans, "artifact_write", top.id());
    const auto t0 = Clock::now();
    std::ofstream out(artifact_path, std::ios::binary);
    write_campaign_json(out, sweep, results);
    out.close();
    write_s = seconds_between(t0, Clock::now());
  }
  const std::string first = slurp(artifact_path);
  {
    Scope s(spans, "artifact_load", top.id());
    const auto t0 = Clock::now();
    std::ifstream file(artifact_path, std::ios::binary);
    std::string load_error;
    const auto loaded = load_campaign_json(file, &load_error);
    load_s = seconds_between(t0, Clock::now());
    bool same = loaded.has_value() && loaded->cells.size() == results.size();
    for (std::size_t i = 0; same && i < results.size(); ++i) {
      same = loaded->cells[i].status.outcome == results[i].status.outcome &&
             loaded->cells[i].label == results[i].label;
    }
    emit_check("artifact_load", same,
               loaded ? std::to_string(loaded->cells.size()) + " cells"
                      : load_error);
  }

  // Resume: reopen the journal the pass wrote; every cell must replay from
  // it and the artifact must come out byte for byte the same.
  double resume_s = 0.0;
  {
    Scope s(spans, "resume", top.id());
    const auto t0 = Clock::now();
    std::string reopen_error;
    std::shared_ptr<CellJournal> replay =
        CellJournal::open(journal_path, &reopen_error);
    std::string second;
    std::size_t replayed = 0;
    if (replay) {
      CampaignOptions ropts;
      ropts.jobs = kWorkers;
      ropts.journal = replay;
      ropts.resume = true;
      const auto again = Campaign(sweep, ropts).run();
      for (const CellResult& r : again) {
        replayed += r.source == CellSource::kJournal ? 1 : 0;
      }
      std::ostringstream out;
      write_campaign_json(out, sweep, again);
      second = std::move(out).str();
    }
    resume_s = seconds_between(t0, Clock::now());
    emit_check("resume_replays_every_cell", replayed == results.size(),
               replay ? std::to_string(replayed) + "/" +
                            std::to_string(results.size()) + " replayed"
                      : reopen_error);
    emit_check("resume_artifact_identical", !first.empty() && first == second,
               std::to_string(first.size()) + " bytes");
  }

  Record pass_record("pass");
  pass_record.add("pass", pass)
      .add("wall_s", seconds_between(wall0, Clock::now()))
      .add("workers", kWorkers)
      .add("sweep_wall_s", sweep_wall);
  if (probe) {
    double sweep_probe_s = 0.0;
    for (const double p : probe_s) sweep_probe_s += p;
    pass_record.add("sweep_cpu_s", sweep_cpu)
        .add("sweep_probe_s", sweep_probe_s);
  }
  pass_record.emit();

  if (emit_layer_counters) {
    emit_plan_cache(*plans);
    emit_counter("coll.tuner_race_s", race_s);
    emit_counter("coll.tuner_raced_cells", raced);
    emit_counter("pacc.journal_records", static_cast<double>(journal->size()));
    emit_counter("pacc.journal_bytes",
                 static_cast<double>(std::filesystem::file_size(journal_path)));
    emit_counter("pacc.resume_s", resume_s);
    emit_counter("pacc.artifact_write_ms", write_s * 1e3);
    emit_counter("pacc.artifact_load_ms", load_s * 1e3);
    emit_counter("pacc.artifact_bytes", static_cast<double>(first.size()));
    double busy = 0.0;
    for (const double h : host) busy += h;
    emit_counter("pacc.worker_busy_ratio",
                 sweep_wall > 0 ? busy / (kWorkers * sweep_wall) : 0.0);
  }
  std::filesystem::remove(journal_path);
  std::filesystem::remove(artifact_path);
}

// --------------------------------------------------------------- main ----

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = value == "1";
      } else if (key == "--tmp") {
        a.tmp = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0) {
    return std::nullopt;
  }
  return a;
}

std::vector<Cell> workload_cells(const std::string& workload,
                                 const Inputs& in) {
  if (workload == "paper64") return paper64_cells(in);
  if (workload == "scale4096") return scale4096_cells(in);
  if (workload == "campaign") return campaign_cells(in);
  if (workload == "selfcheck") return selfcheck_cells();
  return {};
}

/// Runs whole pairs of passes (a pass and its mirror, see
/// Inputs::for_pass) while another pair, as long as the last one, still
/// ends within `seconds`; at least one pair. Emits each pass's peak RSS:
/// the peak of the whole run would grow with the number of passes that
/// fit, and so with the host's speed.
template <class PassFn>
void timed_passes(double seconds, PassFn&& run_pass) {
  const auto t0 = Clock::now();
  int pass = 0;
  for (;;) {
    const auto pair0 = Clock::now();
    for (const int end = pass + 2; pass < end; ++pass) {
      reset_peak_rss();
      run_pass(pass);
      Record("pass_memory")
          .add("pass", pass)
          .add("vm_hwm_bytes", proc_status_bytes("VmHWM:"))
          .emit();
    }
    const auto now = Clock::now();
    if (seconds_between(t0, now) + seconds_between(pair0, now) > seconds) {
      return;
    }
  }
}

int run(const Args& args) {
  const Inputs in(args.seed);
  const auto cells_of = [&](int pass) {
    return workload_cells(args.workload, in.for_pass(pass));
  };
  const std::vector<Cell> cells = cells_of(0);
  if (cells.empty()) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::filesystem::create_directories(args.tmp);
  // Before any thread starts: the pool forks.
  std::unique_ptr<ReferencePool> pool;
  if (!args.trace && args.workload != "selfcheck") {
    pool = std::make_unique<ReferencePool>(
        args.workload == "campaign" ? kCampaignWorkers : 1);
    reference_pool = pool.get();
  }
  std::unique_ptr<Spans> trace_spans =
      args.trace ? std::make_unique<Spans>() : nullptr;
  Spans* spans = trace_spans.get();

  if (args.workload == "selfcheck") {
    serial_pass(0, cells, std::make_shared<coll::PlanCache>(), 0, nullptr,
                0);
    return 0;
  }

  // Set-up is timed in a pass of its own before the cells, and again after
  // every measured pass, so its median samples the host over the whole run
  // like the cell figures do.
  constexpr int kSetupReps = 32;
  setup_pass(cells, kSetupReps, !args.trace, spans);

  if (args.workload == "campaign") {
    if (!args.trace) {
      timed_passes(args.seconds, [&](int pass) {
        campaign_pass(pass, cells_of(pass), in.for_pass(pass), args.tmp,
                      true, false, nullptr);
        setup_pass(cells, kSetupReps, true, nullptr);
      });
    } else {
      campaign_pass(0, cells, in, args.tmp, false, true, spans);
      Scope layers(spans, "layers");
      time_plan_build(flat_cluster(64, 8), spans, layers.id());
      Cell probe;
      probe.cluster = flat_cluster(64, 8);
      probe.bench = spec_of(coll::Op::kAlltoall, coll::PowerScheme::kProposed,
                            64 * kKiB, 5, 2);
      trace_overhead(probe, spans, layers.id());
    }
  } else if (!args.trace) {
    // scale4096 has 8 cells a run where paper64 has hundreds; nine calls
    // after each give its run a steady median of the reference too.
    const int probe_calls = args.workload == "scale4096" ? 9 : 1;
    if (args.workload == "paper64") {
      // Untimed warm-up (reported as pass -1): the first pass over these
      // short cells runs ~20% slower while the allocator's heap grows.
      serial_pass(-1, cells_of(-1), std::make_shared<coll::PlanCache>(),
                  probe_calls, nullptr, 0);
    }
    timed_passes(args.seconds, [&](int pass) {
      serial_pass(pass, cells_of(pass), std::make_shared<coll::PlanCache>(),
                  probe_calls, nullptr, 0);
      setup_pass(cells, kSetupReps, true, nullptr);
    });
  } else {
    const auto plans = std::make_shared<coll::PlanCache>();
    std::map<std::string, std::uint64_t> flows;
    {
      Scope top(spans, "pass");
      flows = serial_pass(0, cells, plans, 0, spans, top.id());
    }
    emit_plan_cache(*plans);
    Scope layers(spans, "layers");
    // The largest communicator: every scale4096 cell has 4096 ranks.
    time_plan_build(cells.front().cluster, spans, layers.id());
    replicate_all(cells, flows, spans, layers.id());
    if (args.workload == "paper64") {
      for (const Cell& cell : cells) {
        if (cell.bench.op == coll::Op::kAlltoall &&
            cell.bench.scheme == coll::PowerScheme::kProposed &&
            cell.nominal == 64 * kKiB) {
          trace_overhead(cell, spans, layers.id());
        }
      }
    }
  }

  Record("memory").add("vm_peak_bytes", proc_status_bytes("VmPeak:")).emit();
  if (spans != nullptr) {
    emit_proc_counters();
    const std::string path = args.tmp + "/trace.json";
    if (!spans->write_chrome(path)) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    Record("trace").add("path", path).emit();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --tmp DIR\n";
    return 2;
  }
  return run(*args);
}
