#include "coll/tuner.hpp"

#include <cinttypes>
#include <fstream>
#include <ostream>
#include <sstream>

#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "util/fsio.hpp"

namespace pacc::coll {

std::optional<TunedDecision> Tuner::lookup(const TunedKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = table_.find(key);
  if (it == table_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

bool Tuner::contains(const TunedKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.find(key) != table_.end();
}

void Tuner::record(const TunedKey& key, TunedDecision decision) {
  std::lock_guard<std::mutex> lock(mu_);
  table_[key] = std::move(decision);
}

std::size_t Tuner::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

std::uint64_t Tuner::fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  // FNV-1a over the sorted entries (std::map iteration is ordered, so the
  // digest is insertion-order independent by construction).
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  mix(table_.size());
  for (const auto& [key, decision] : table_) {
    mix(static_cast<std::uint64_t>(key.op));
    mix(static_cast<std::uint64_t>(key.scheme));
    mix(static_cast<std::uint64_t>(key.bytes));
    mix(key.fingerprint);
    mix(decision.algo.size());
    for (const char c : decision.algo) mix(static_cast<unsigned char>(c));
    mix(static_cast<std::uint64_t>(decision.seg));
  }
  return h;
}

void Tuner::save(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\n  \"schema\": \"pacc-tuned-v1\",\n  \"entries\": [\n";
  std::size_t i = 0;
  for (const auto& [key, decision] : table_) {
    // The fingerprint is a full uint64; emitted as a string so JSON
    // consumers that parse numbers as doubles cannot corrupt it.
    out << "    {\"op\": \"" << to_string(key.op) << "\", \"scheme\": \""
        << to_string(key.scheme) << "\", \"bytes\": " << key.bytes
        << ", \"fingerprint\": \"" << key.fingerprint << "\", \"algo\": \""
        << decision.algo << "\", \"seg\": " << decision.seg << "}"
        << (++i < table_.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

bool Tuner::save_file(const std::string& path) const {
  // Atomic replace (util/fsio.hpp): a crash mid-save must leave the old
  // complete table, never a torn prefix the strict loader would reject.
  std::ostringstream out;
  save(out);
  return atomic_write_file(path, out.str());
}

namespace {

/// Value of `"key": "..."` within `line`, or nullopt. Entries are written
/// one per line by save(), so a line-oriented scan is a full parser for
/// everything this library produces — and tolerates reformatted files as
/// long as each entry object stays on one line.
std::optional<std::string> string_field(const std::string& line,
                                        const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos = line.find('"', pos + needle.size());
  if (pos == std::string::npos) return std::nullopt;
  const auto end = line.find('"', pos + 1);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(pos + 1, end - pos - 1);
}

/// Value of `"key": 123` within `line`, or nullopt.
std::optional<std::uint64_t> int_field(const std::string& line,
                                       const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(line[pos] - '0');
    ++pos;
  }
  return value;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool Tuner::load(std::istream& in, std::string* error) {
  std::string line;
  bool schema_seen = false;
  bool footer_seen = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!schema_seen) {
      if (const auto schema = string_field(line, "schema")) {
        if (*schema != "pacc-tuned-v1") {
          return fail(error, "unsupported tuned-table schema: " + *schema);
        }
        schema_seen = true;
      }
      continue;
    }
    std::string trimmed = line;
    trimmed.erase(0, trimmed.find_first_not_of(" \t\r"));
    const auto last = trimmed.find_last_not_of(" \t\r");
    trimmed.erase(last == std::string::npos ? 0 : last + 1);
    if (trimmed == "}") {
      footer_seen = true;
      continue;
    }
    if (footer_seen && !trimmed.empty()) {
      return fail(error, "trailing content after tuned-table footer at line " +
                             std::to_string(line_no) + ": " + line);
    }
    if (line.find("\"op\":") == std::string::npos) continue;
    const auto op_name = string_field(line, "op");
    const auto scheme_name = string_field(line, "scheme");
    const auto fingerprint = string_field(line, "fingerprint");
    const auto bytes = int_field(line, "bytes");
    const auto algo = string_field(line, "algo");
    const auto seg = int_field(line, "seg");
    if (!op_name || !scheme_name || !fingerprint || !bytes || !algo || !seg) {
      return fail(error, "malformed tuned-table entry at line " +
                             std::to_string(line_no) + ": " + line);
    }
    const auto op = parse_op(*op_name);
    const auto scheme = parse_scheme(*scheme_name);
    if (!op || !scheme) {
      return fail(error, "unknown op/scheme in tuned-table entry at line " +
                             std::to_string(line_no) + ": " + line);
    }
    std::uint64_t fp = 0;
    for (const char c : *fingerprint) {
      if (c < '0' || c > '9') {
        return fail(error, "non-numeric fingerprint at line " +
                               std::to_string(line_no));
      }
      fp = fp * 10 + static_cast<std::uint64_t>(c - '0');
    }
    record(TunedKey{.op = *op,
                    .scheme = *scheme,
                    .bytes = static_cast<Bytes>(*bytes),
                    .fingerprint = fp},
           TunedDecision{.algo = *algo, .seg = static_cast<Bytes>(*seg)});
  }
  if (!schema_seen) return fail(error, "missing pacc-tuned-v1 schema header");
  // A table without its closing brace is a torn write, not a shorter
  // table — reject it instead of silently dropping the lost tail.
  if (!footer_seen) {
    return fail(error, "truncated tuned table: missing closing brace");
  }
  return true;
}

bool Tuner::load_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open tuned table: " + path);
  return load(in, error);
}

TunedDispatch tuned_choice(mpi::Comm& comm, Op op, PowerScheme scheme,
                           Bytes bytes) {
  Tuner* tuner = comm.runtime().tuner().get();
  if (tuner == nullptr) return {};
  const TunedKey key{.op = op,
                     .scheme = scheme,
                     .bytes = bytes,
                     .fingerprint = comm.structure_fingerprint()};
  const auto decision = tuner->lookup(key);
  if (!decision) return {};
  const AlgoDesc* desc = find_algorithm(decision->algo);
  if (desc == nullptr || desc->op != op || desc->exec_inner == nullptr ||
      !algo_supports(*desc, scheme)) {
    return {};
  }
  return TunedDispatch{.desc = desc, .seg = decision->seg};
}

}  // namespace pacc::coll
