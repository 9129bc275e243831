#include "core/journal.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define APLACE_HAVE_FSYNC 1
#endif

#include "base/fnv.hpp"
#include "base/json.hpp"
#include "io/netlist_io.hpp"

namespace aplace::core {
namespace {

namespace fs = std::filesystem;

void append_double(std::string& out, double v) {
  std::array<char, 32> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  out.append(buf.data(), res.ptr);
}

std::string hex64(std::uint64_t v) {
  std::array<char, 17> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + 16, v, 16);
  return {buf.data(), res.ptr};
}

// ---- flat JSON ------------------------------------------------------------
// Records are single-level objects whose values are strings, numbers or
// booleans — all a journal line ever needs, and small enough to keep the
// tolerant re-loader trivially auditable.

using base::append_json_string;

/// Builds one record line. Numbers go through to_chars so reloading them
/// with from_chars reproduces the exact double.
class RecordWriter {
 public:
  explicit RecordWriter(std::string_view type) : buf_("{") {
    add_string("type", type);
  }

  void add_string(std::string_view key, std::string_view value) {
    begin_field(key);
    append_json_string(buf_, value);
  }
  void add_raw(std::string_view key, std::string_view raw) {
    begin_field(key);
    buf_ += raw;
  }
  void add_num(std::string_view key, double v) {
    begin_field(key);
    if (std::isfinite(v)) {
      append_double(buf_, v);
    } else {
      // from_chars parses "inf"/"nan" back; JSON-quote to stay valid JSON.
      append_json_string(buf_, v != v ? "nan" : (v > 0 ? "inf" : "-inf"));
    }
  }
  void add_int(std::string_view key, long long v) {
    begin_field(key);
    buf_ += std::to_string(v);
  }
  void add_bool(std::string_view key, bool v) {
    add_raw(key, v ? "true" : "false");
  }

  [[nodiscard]] std::string finish() && {
    buf_ += "}\n";
    return std::move(buf_);
  }

 private:
  void begin_field(std::string_view key) {
    if (buf_.size() > 1) buf_ += ',';
    append_json_string(buf_, key);
    buf_ += ':';
  }

  std::string buf_;
};

bool is_json_ws(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n';
}

/// Parse one flat JSON object into key -> value text (strings unescaped,
/// scalars raw). Returns false on anything malformed — the loader then
/// skips the line.
bool parse_flat_json(std::string_view line,
                     std::map<std::string, std::string>& out) {
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < line.size() && is_json_ws(line[i])) ++i;
  };
  auto parse_string = [&](std::string& s) -> bool {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    s.clear();
    while (i < line.size()) {
      const char ch = line[i++];
      if (ch == '"') return true;
      if (ch != '\\') {
        s += ch;
        continue;
      }
      if (i >= line.size()) return false;
      const char esc = line[i++];
      switch (esc) {
        case '"': s += '"'; break;
        case '\\': s += '\\'; break;
        case '/': s += '/'; break;
        case 'b': s += '\b'; break;
        case 'f': s += '\f'; break;
        case 'n': s += '\n'; break;
        case 'r': s += '\r'; break;
        case 't': s += '\t'; break;
        case 'u': {
          if (i + 4 > line.size()) return false;
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            const char hx = line[i++];
            cp <<= 4;
            if (hx >= '0' && hx <= '9') cp |= static_cast<unsigned>(hx - '0');
            else if (hx >= 'a' && hx <= 'f') cp |= static_cast<unsigned>(hx - 'a' + 10);
            else if (hx >= 'A' && hx <= 'F') cp |= static_cast<unsigned>(hx - 'A' + 10);
            else return false;
          }
          // We only ever emit \u00XX; decode any BMP scalar to UTF-8 anyway.
          if (cp < 0x80) {
            s += static_cast<char>(cp);
          } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  };

  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (i >= line.size() || line[i] != ':') return false;
      ++i;
      skip_ws();
      std::string value;
      if (i < line.size() && line[i] == '"') {
        if (!parse_string(value)) return false;
      } else {
        const std::size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}' &&
               !is_json_ws(line[i])) {
          ++i;
        }
        if (i == start) return false;
        value = std::string(line.substr(start, i - start));
      }
      out[std::move(key)] = std::move(value);
      skip_ws();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      return false;
    }
  }
  skip_ws();
  return i == line.size();
}

// ---- field extraction -----------------------------------------------------

const std::string* get(const std::map<std::string, std::string>& m,
                       const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? nullptr : &it->second;
}

void get_num(const std::map<std::string, std::string>& m,
             const std::string& key, double& out) {
  if (const std::string* v = get(m, key)) {
    double parsed = 0;
    const auto res = std::from_chars(v->data(), v->data() + v->size(), parsed);
    if (res.ec == std::errc{}) out = parsed;
  }
}

void get_int(const std::map<std::string, std::string>& m,
             const std::string& key, int& out) {
  if (const std::string* v = get(m, key)) {
    int parsed = 0;
    const auto res = std::from_chars(v->data(), v->data() + v->size(), parsed);
    if (res.ec == std::errc{}) out = parsed;
  }
}

void get_bool(const std::map<std::string, std::string>& m,
              const std::string& key, bool& out) {
  if (const std::string* v = get(m, key)) out = *v == "true";
}

std::optional<StatusCode> code_from_string(const std::string& s) {
  for (const StatusCode c :
       {StatusCode::Ok, StatusCode::InvalidInput, StatusCode::Diverged,
        StatusCode::Infeasible, StatusCode::BudgetExhausted,
        StatusCode::Cancelled, StatusCode::Internal}) {
    if (s == to_string(c)) return c;
  }
  return std::nullopt;
}

std::string snapshot_dir_for(const std::string& journal_path) {
  return journal_path + ".snapshots";
}

bool placement_is_finite(const netlist::Placement& pl) {
  const netlist::Circuit& c = pl.circuit();
  for (std::size_t i = 0; i < c.num_devices(); ++i) {
    const geom::Point p = pl.position(DeviceId{i});
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
  }
  return true;
}

/// Write `text` to `path` via temp file + rename so a crash never leaves a
/// half-written snapshot under the final name.
bool write_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      text.empty() ||
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  bool ok = wrote && std::fflush(f) == 0;
#ifdef APLACE_HAVE_FSYNC
  ok = ok && fsync(fileno(f)) == 0;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

struct RunJournal::Impl {
  std::mutex mu;
  std::FILE* file = nullptr;
  std::string snapshot_dir;

  ~Impl() {
    if (file != nullptr) std::fclose(file);
  }

  /// Append one finished line. Flush + fsync before returning so the record
  /// is on disk when the caller moves on (crash consistency contract).
  void append(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mu);
    if (file == nullptr) return;
    std::fwrite(line.data(), 1, line.size(), file);
    std::fflush(file);
#ifdef APLACE_HAVE_FSYNC
    fsync(fileno(file));
#endif
  }
};

Result<RunJournal> RunJournal::open(const std::string& path) {
  std::error_code ec;
  const fs::path dir = fs::path(path).parent_path();
  if (!dir.empty()) fs::create_directories(dir, ec);
  fs::create_directories(snapshot_dir_for(path), ec);
  if (ec) {
    return Status::invalid_input("cannot create snapshot directory '" +
                                 snapshot_dir_for(path) +
                                 "': " + ec.message());
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::invalid_input("cannot open journal '" + path +
                                 "' for appending");
  }
  RunJournal j;
  j.path_ = path;
  j.impl_ = std::make_shared<Impl>();
  j.impl_->file = f;
  j.impl_->snapshot_dir = snapshot_dir_for(path);
  return j;
}

std::map<std::string, JournalEntry> RunJournal::load_completed(
    const std::string& path) {
  std::map<std::string, JournalEntry> out;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return out;
  std::string line;
  while (std::getline(in, line)) {
    std::map<std::string, std::string> rec;
    if (!parse_flat_json(line, rec)) continue;  // torn/corrupt line
    const std::string* type = get(rec, "type");
    const std::string* key = get(rec, "key");
    if (type == nullptr || key == nullptr) continue;
    if (*type == "interrupted") {
      // The job was cut short — whatever terminal record an *earlier* batch
      // wrote still stands, but this run produced nothing final.
      continue;
    }
    if (*type != "done" && *type != "attempts_exhausted") continue;

    JournalEntry e;
    e.key = *key;
    e.quarantined = *type == "attempts_exhausted";
    get_int(rec, "attempts", e.attempts);
    get_num(rec, "wall_seconds", e.wall_seconds);
    if (const std::string* code = get(rec, "code")) {
      const auto parsed = code_from_string(*code);
      if (!parsed) continue;  // unknown code: treat record as unusable
      e.code = *parsed;
    }
    if (const std::string* msg = get(rec, "message")) e.message = *msg;
    int trail_n = 0;
    get_int(rec, "trail_n", trail_n);
    for (int t = 0; t < trail_n; ++t) {
      if (const std::string* note = get(rec, "trail" + std::to_string(t))) {
        e.trail.push_back(*note);
      }
    }
    get_int(rec, "fallback", e.fallback);
    get_bool(rec, "gp_diverged", e.gp_diverged);
    get_bool(rec, "deadline_hit", e.deadline_hit);
    get_num(rec, "gp_seconds", e.gp_seconds);
    get_num(rec, "dp_seconds", e.dp_seconds);
    get_num(rec, "total_seconds", e.total_seconds);
    get_num(rec, "sa_moves_per_second", e.sa_moves_per_second);
    get_num(rec, "sa_net_eval_ratio", e.sa_net_eval_ratio);
    get_num(rec, "hpwl", e.quality.hpwl);
    get_num(rec, "area", e.quality.area);
    get_num(rec, "overlap_area", e.quality.overlap_area);
    get_num(rec, "symmetry_violation", e.quality.symmetry_violation);
    get_num(rec, "alignment_violation", e.quality.alignment_violation);
    get_num(rec, "ordering_violation", e.quality.ordering_violation);
    get_num(rec, "centroid_violation", e.quality.centroid_violation);
    if (const std::string* snap = get(rec, "snapshot")) e.snapshot = *snap;
    const auto get_hex64 = [&rec](const std::string& field,
                                  std::uint64_t& value) {
      if (const std::string* hex = get(rec, field)) {
        std::uint64_t d = 0;
        const auto res =
            std::from_chars(hex->data(), hex->data() + hex->size(), d, 16);
        if (res.ec == std::errc{} && res.ptr == hex->data() + hex->size()) {
          value = d;
        }
      }
    };
    get_hex64("digest", e.digest);
    get_hex64("circuit_digest", e.circuit_digest);
    out[e.key] = std::move(e);  // later records win
  }
  return out;
}

Result<netlist::Placement> RunJournal::load_snapshot(
    const std::string& journal_path, const JournalEntry& entry,
    const netlist::Circuit& circuit) {
  if (entry.snapshot.empty()) {
    return Status::invalid_input("journal entry '" + entry.key +
                                 "' recorded no placement snapshot");
  }
  const std::string path =
      snapshot_dir_for(journal_path) + "/" + entry.snapshot;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Status::invalid_input("snapshot '" + path + "' is missing");
  }
  std::ostringstream os;
  os << in.rdbuf();
  const std::string text = os.str();
  if (base::fnv1a64(text) != entry.digest) {
    return Status::invalid_input("snapshot '" + path +
                                 "' does not match its recorded digest");
  }
  return io::placement_from_text(circuit, text);
}

void RunJournal::record_batch_start(std::size_t num_jobs,
                                    std::size_t num_resumed) {
  if (!impl_) return;
  RecordWriter w("batch_start");
  w.add_int("version", 1);
  w.add_int("jobs", static_cast<long long>(num_jobs));
  w.add_int("resumed", static_cast<long long>(num_resumed));
  impl_->append(std::move(w).finish());
}

void RunJournal::record_submit(const std::string& key, std::size_t index) {
  if (!impl_) return;
  RecordWriter w("submit");
  w.add_string("key", key);
  w.add_int("index", static_cast<long long>(index));
  impl_->append(std::move(w).finish());
}

void RunJournal::record_start(const std::string& key, int attempt) {
  if (!impl_) return;
  RecordWriter w("start");
  w.add_string("key", key);
  w.add_int("attempt", attempt);
  impl_->append(std::move(w).finish());
}

void RunJournal::record_retry(const std::string& key, int attempt,
                              const Status& st) {
  if (!impl_) return;
  RecordWriter w("retry");
  w.add_string("key", key);
  w.add_int("attempt", attempt);
  w.add_string("code", to_string(st.code()));
  w.add_string("message", st.message());
  impl_->append(std::move(w).finish());
}

void RunJournal::record_interrupted(const std::string& key, int attempts,
                                    const Status& st) {
  if (!impl_) return;
  RecordWriter w("interrupted");
  w.add_string("key", key);
  w.add_int("attempts", attempts);
  w.add_string("code", to_string(st.code()));
  w.add_string("message", st.message());
  impl_->append(std::move(w).finish());
}

void RunJournal::record_metrics(const obs::MetricsSnapshot& snap) {
  if (!impl_ || snap.empty()) return;
  RecordWriter w("metrics");
  // Nested object, embedded raw: the tolerant flat-JSON loader skips this
  // record type (it only replays terminal entries), so nesting is safe —
  // the line exists for offline analysis of journal files.
  w.add_raw("metrics", snap.to_json());
  impl_->append(std::move(w).finish());
}

void RunJournal::record_terminal(const std::string& key,
                                 const FlowResult& result, int attempts,
                                 double wall_seconds, bool quarantined,
                                 std::uint64_t circuit_digest) {
  if (!impl_) return;

  // Snapshot first, record second: a record referencing a snapshot implies
  // the snapshot bytes already hit the disk.
  std::string snapshot_name;
  std::uint64_t digest = 0;
  if (placement_is_finite(result.placement)) {
    const std::string text = io::placement_to_text(result.placement);
    snapshot_name = hex64(base::fnv1a64(key)) + ".aplc";
    if (write_atomic(impl_->snapshot_dir + "/" + snapshot_name, text)) {
      digest = base::fnv1a64(text);
    } else {
      snapshot_name.clear();  // record the result without a snapshot
    }
  }

  RecordWriter w(quarantined ? "attempts_exhausted" : "done");
  w.add_string("key", key);
  w.add_int("attempts", attempts);
  w.add_num("wall_seconds", wall_seconds);
  w.add_string("code", to_string(result.status.code()));
  w.add_string("message", result.status.message());
  w.add_int("trail_n", static_cast<long long>(result.status.trail().size()));
  for (std::size_t t = 0; t < result.status.trail().size(); ++t) {
    w.add_string("trail" + std::to_string(t), result.status.trail()[t]);
  }
  w.add_int("fallback", static_cast<int>(result.fallback));
  w.add_bool("gp_diverged", result.gp_diverged);
  w.add_bool("deadline_hit", result.deadline_hit);
  w.add_num("gp_seconds", result.gp_seconds);
  w.add_num("dp_seconds", result.dp_seconds);
  w.add_num("total_seconds", result.total_seconds);
  w.add_num("sa_moves_per_second", result.sa_moves_per_second);
  w.add_num("sa_net_eval_ratio", result.sa_net_eval_ratio);
  w.add_num("hpwl", result.quality.hpwl);
  w.add_num("area", result.quality.area);
  w.add_num("overlap_area", result.quality.overlap_area);
  w.add_num("symmetry_violation", result.quality.symmetry_violation);
  w.add_num("alignment_violation", result.quality.alignment_violation);
  w.add_num("ordering_violation", result.quality.ordering_violation);
  w.add_num("centroid_violation", result.quality.centroid_violation);
  if (!snapshot_name.empty()) {
    w.add_string("snapshot", snapshot_name);
    w.add_string("digest", hex64(digest));
  }
  if (circuit_digest != 0) {
    w.add_string("circuit_digest", hex64(circuit_digest));
  }
  impl_->append(std::move(w).finish());
}

}  // namespace aplace::core
