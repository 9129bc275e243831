#include "io/netlist_io.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "base/json.hpp"

namespace aplace::io {
namespace {

using netlist::AlignmentKind;
using netlist::Axis;
using netlist::DeviceType;
using netlist::OrderDirection;

// ---- serialization --------------------------------------------------------

using base::append_double;

std::string num_str(double v) {
  std::string s;
  append_double(s, v);
  return s;
}

const char* type_token(DeviceType t) { return netlist::to_string(t); }

std::optional<DeviceType> type_from_token(std::string_view s) {
  for (const DeviceType t :
       {DeviceType::Nmos, DeviceType::Pmos, DeviceType::Capacitor,
        DeviceType::Resistor, DeviceType::Inductor, DeviceType::Diode,
        DeviceType::Module}) {
    if (s == netlist::to_string(t)) return t;
  }
  return std::nullopt;
}

// ---- tokenization ---------------------------------------------------------

/// One whitespace-separated token and the 1-based column of its first
/// character — parse errors point at it.
struct Token {
  std::string_view text;
  std::size_t col = 0;
};

bool is_space(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\v' || ch == '\f';
}

class LineLexer {
 public:
  explicit LineLexer(std::string_view line) : line_(line) {}

  bool next(Token& tok) {
    while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
    if (pos_ >= line_.size()) return false;
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !is_space(line_[pos_])) ++pos_;
    tok = {line_.substr(start, pos_ - start), start + 1};
    return true;
  }

  /// 1-based column the lexer stands at (end-of-line diagnostics).
  [[nodiscard]] std::size_t column() const { return pos_ + 1; }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
};

std::string loc(long line) { return "line " + std::to_string(line); }

Status err_at(long line, std::size_t col, std::string msg) {
  return Status::invalid_input(loc(line) + ", col " + std::to_string(col) +
                               ": " + std::move(msg));
}

Status err_line(long line, std::string msg) {
  return Status::invalid_input(loc(line) + ": " + std::move(msg));
}

/// Line-iteration machinery shared by the two grammars: hands the handler
/// one comment-stripped, non-empty line at a time as (first token, lexer).
class ParserBase {
 protected:
  long line_no_ = 0;

  template <class Fn>
  Status for_each_line(const std::string& text, Fn&& handle) {
    std::size_t begin = 0;
    line_no_ = 0;
    while (begin <= text.size()) {
      std::size_t end = text.find('\n', begin);
      if (end == std::string::npos) end = text.size();
      std::string_view line(text.data() + begin, end - begin);
      ++line_no_;
      const std::size_t hash = line.find('#');
      if (hash != std::string_view::npos) line = line.substr(0, hash);
      LineLexer lex(line);
      Token tok;
      if (lex.next(tok)) {
        if (Status st = handle(tok, lex); !st.ok()) return st;
      }
      if (end == text.size()) break;
      begin = end + 1;
    }
    return {};
  }

  Status expect(LineLexer& lex, const char* what, Token& tok) const {
    if (!lex.next(tok)) {
      return err_at(line_no_, lex.column(),
                    std::string("expected ") + what + ", got end of line");
    }
    return {};
  }

  Status expect_end(LineLexer& lex) const {
    Token extra;
    if (lex.next(extra)) {
      return err_at(line_no_, extra.col,
                    "unexpected trailing token '" + std::string(extra.text) +
                        "'");
    }
    return {};
  }

  Status parse_double(const Token& tok, const char* what, double& out) const {
    const char* first = tok.text.data();
    const char* last = first + tok.text.size();
    double v = 0;
    const auto res = std::from_chars(first, last, v);
    if (res.ec != std::errc{} || res.ptr != last || !std::isfinite(v)) {
      return err_at(line_no_, tok.col,
                    std::string("expected a finite number for ") + what +
                        ", got '" + std::string(tok.text) + "'");
    }
    out = v;
    return {};
  }

  Status parse_flag01(const Token& tok, const char* what, bool& out) const {
    if (tok.text == "0" || tok.text == "1") {
      out = tok.text == "1";
      return {};
    }
    return err_at(line_no_, tok.col,
                  std::string("expected 0 or 1 for ") + what + ", got '" +
                      std::string(tok.text) + "'");
  }
};

// ---- circuit parsing ------------------------------------------------------

class CircuitParser : ParserBase {
 public:
  Result<netlist::Circuit> run(const std::string& text) {
    try {
      Status st = for_each_line(
          text, [&](const Token& tok, LineLexer& lex) {
            return handle_directive(tok, lex);
          });
      if (st.ok() && !named_) {
        st = Status::invalid_input("missing 'circuit <name>' directive");
      }
      if (st.ok()) st = resolve();
      if (!st.ok()) {
        st.add_context("parsing .acirc text");
        return st;
      }
      return std::move(circuit_);
    } catch (const CheckError& e) {
      // Backstop: every Circuit precondition is pre-validated above, so a
      // CheckError here is a parser bug, not bad input.
      return Status::internal(std::string("netlist parser invariant: ") +
                              e.what())
          .add_context("parsing .acirc text");
    }
  }

 private:
  struct PinRef {
    std::string ref;  ///< "device.pin" as written
    std::size_t col = 0;
  };
  struct PendingNet {
    std::string name;
    double weight = 1.0;
    bool critical = false;
    std::vector<PinRef> pins;
    long line = 0;
  };
  struct PendingSym {
    Axis axis = Axis::Vertical;
    std::vector<std::pair<std::string, std::string>> pairs;
    std::vector<std::string> selfs;
    long line = 0;
  };
  struct PendingAlign {
    AlignmentKind kind = AlignmentKind::Bottom;
    std::string a, b;
    long line = 0;
  };
  struct PendingOrder {
    OrderDirection dir = OrderDirection::LeftToRight;
    std::vector<std::string> devices;
    long line = 0;
  };
  struct PendingCentroid {
    std::array<std::string, 4> quad;
    long line = 0;
  };

  Status handle_directive(const Token& tok, LineLexer& lex) {
    if (tok.text == "circuit") return handle_circuit(tok, lex);
    if (!named_) {
      return err_at(line_no_, tok.col,
                    "expected 'circuit <name>' before '" +
                        std::string(tok.text) + "'");
    }
    if (tok.text == "device") return handle_device(lex);
    if (tok.text == "pin") return handle_pin(lex);
    if (tok.text == "net") return handle_net(lex);
    if (tok.text == "sym") return handle_sym(lex);
    if (tok.text == "align") return handle_align(lex);
    if (tok.text == "order") return handle_order(lex);
    if (tok.text == "centroid") return handle_centroid(lex);
    return err_at(line_no_, tok.col,
                  "unknown directive '" + std::string(tok.text) + "'");
  }

  Status handle_circuit(const Token& tok, LineLexer& lex) {
    if (named_) {
      return err_at(line_no_, tok.col,
                    "duplicate 'circuit' directive (first at " +
                        loc(circuit_line_) + ")");
    }
    Token name;
    if (Status st = expect(lex, "circuit name", name); !st.ok()) return st;
    if (Status st = expect_end(lex); !st.ok()) return st;
    circuit_ = netlist::Circuit(std::string(name.text));
    named_ = true;
    circuit_line_ = line_no_;
    return {};
  }

  Status handle_device(LineLexer& lex) {
    Token name, type, wt, ht;
    if (Status st = expect(lex, "device name", name); !st.ok()) return st;
    if (Status st = expect(lex, "device type", type); !st.ok()) return st;
    if (Status st = expect(lex, "device width", wt); !st.ok()) return st;
    if (Status st = expect(lex, "device height", ht); !st.ok()) return st;
    if (Status st = expect_end(lex); !st.ok()) return st;

    if (const auto it = device_line_.find(name.text);
        it != device_line_.end()) {
      return err_at(line_no_, name.col,
                    "duplicate device '" + std::string(name.text) +
                        "' (first defined at " + loc(it->second) + ")");
    }
    const std::optional<DeviceType> dt = type_from_token(type.text);
    if (!dt) {
      return err_at(line_no_, type.col,
                    "unknown device type '" + std::string(type.text) + "'");
    }
    double w = 0, h = 0;
    if (Status st = parse_double(wt, "device width", w); !st.ok()) return st;
    if (Status st = parse_double(ht, "device height", h); !st.ok()) return st;
    if (w <= 0 || h <= 0) {
      return err_at(line_no_, wt.col,
                    "device '" + std::string(name.text) +
                        "' needs a positive footprint, got " + num_str(w) +
                        " x " + num_str(h));
    }
    circuit_.add_device(std::string(name.text), *dt, w, h);
    device_line_.emplace(std::string(name.text), line_no_);
    return {};
  }

  Status handle_pin(LineLexer& lex) {
    Token dev, pin, dxt, dyt;
    if (Status st = expect(lex, "device name", dev); !st.ok()) return st;
    if (Status st = expect(lex, "pin name", pin); !st.ok()) return st;
    if (Status st = expect(lex, "pin x offset", dxt); !st.ok()) return st;
    if (Status st = expect(lex, "pin y offset", dyt); !st.ok()) return st;
    if (Status st = expect_end(lex); !st.ok()) return st;

    const DeviceId id = circuit_.find_device(std::string(dev.text));
    if (!id.valid()) {
      return err_at(line_no_, dev.col,
                    "unknown device '" + std::string(dev.text) + "'");
    }
    const std::string key =
        std::string(dev.text) + "." + std::string(pin.text);
    if (const auto it = pin_line_.find(key); it != pin_line_.end()) {
      return err_at(line_no_, pin.col,
                    "duplicate pin '" + key + "' (first defined at " +
                        loc(it->second) + ")");
    }
    double dx = 0, dy = 0;
    if (Status st = parse_double(dxt, "pin x offset", dx); !st.ok()) return st;
    if (Status st = parse_double(dyt, "pin y offset", dy); !st.ok()) return st;
    const netlist::Device& d = circuit_.device(id);
    if (dx < 0 || dx > d.width || dy < 0 || dy > d.height) {
      return err_at(line_no_, dxt.col,
                    "pin offset (" + num_str(dx) + ", " + num_str(dy) +
                        ") outside device '" + d.name + "' footprint (" +
                        num_str(d.width) + " x " + num_str(d.height) + ")");
    }
    pin_by_name_.emplace(key,
                         circuit_.add_pin(id, std::string(pin.text), {dx, dy}));
    pin_line_.emplace(key, line_no_);
    return {};
  }

  Status handle_net(LineLexer& lex) {
    Token name, wt, crit;
    if (Status st = expect(lex, "net name", name); !st.ok()) return st;
    if (Status st = expect(lex, "net weight", wt); !st.ok()) return st;
    if (Status st = expect(lex, "net critical flag", crit); !st.ok()) return st;

    if (const auto it = net_line_.find(name.text); it != net_line_.end()) {
      return err_at(line_no_, name.col,
                    "duplicate net '" + std::string(name.text) +
                        "' (first defined at " + loc(it->second) + ")");
    }
    PendingNet pn;
    pn.name = std::string(name.text);
    pn.line = line_no_;
    if (Status st = parse_double(wt, "net weight", pn.weight); !st.ok()) {
      return st;
    }
    if (pn.weight <= 0) {
      return err_at(line_no_, wt.col,
                    "net '" + pn.name + "' weight must be positive, got " +
                        num_str(pn.weight));
    }
    if (Status st = parse_flag01(crit, "net critical flag", pn.critical);
        !st.ok()) {
      return st;
    }
    Token ref;
    while (lex.next(ref)) {
      pn.pins.push_back({std::string(ref.text), ref.col});
    }
    if (pn.pins.empty()) {
      return err_at(line_no_, lex.column(),
                    "net '" + pn.name + "' needs at least one pin");
    }
    net_line_.emplace(pn.name, line_no_);
    nets_.push_back(std::move(pn));
    return {};
  }

  Status handle_sym(LineLexer& lex) {
    Token axis;
    if (Status st = expect(lex, "symmetry axis (V or H)", axis); !st.ok()) {
      return st;
    }
    PendingSym ps;
    ps.line = line_no_;
    if (axis.text == "V") {
      ps.axis = Axis::Vertical;
    } else if (axis.text == "H") {
      ps.axis = Axis::Horizontal;
    } else {
      return err_at(line_no_, axis.col,
                    "expected symmetry axis V or H, got '" +
                        std::string(axis.text) + "'");
    }
    Token kw;
    while (lex.next(kw)) {
      if (kw.text == "pair") {
        Token a, b;
        if (Status st = expect(lex, "first device of pair", a); !st.ok()) {
          return st;
        }
        if (Status st = expect(lex, "second device of pair", b); !st.ok()) {
          return st;
        }
        ps.pairs.emplace_back(std::string(a.text), std::string(b.text));
      } else if (kw.text == "self") {
        Token d;
        if (Status st = expect(lex, "self-symmetric device", d); !st.ok()) {
          return st;
        }
        ps.selfs.emplace_back(d.text);
      } else {
        return err_at(line_no_, kw.col,
                      "expected 'pair' or 'self', got '" +
                          std::string(kw.text) + "'");
      }
    }
    if (ps.pairs.empty() && ps.selfs.empty()) {
      return err_at(line_no_, lex.column(),
                    "symmetry group needs at least one pair or self entry");
    }
    syms_.push_back(std::move(ps));
    return {};
  }

  Status handle_align(LineLexer& lex) {
    Token kind, a, b;
    if (Status st = expect(lex, "alignment kind", kind); !st.ok()) return st;
    if (Status st = expect(lex, "first device", a); !st.ok()) return st;
    if (Status st = expect(lex, "second device", b); !st.ok()) return st;
    if (Status st = expect_end(lex); !st.ok()) return st;

    PendingAlign pa;
    pa.line = line_no_;
    if (kind.text == "bottom") {
      pa.kind = AlignmentKind::Bottom;
    } else if (kind.text == "vcenter") {
      pa.kind = AlignmentKind::VerticalCenter;
    } else if (kind.text == "hcenter") {
      pa.kind = AlignmentKind::HorizontalCenter;
    } else {
      return err_at(line_no_, kind.col,
                    "expected alignment kind bottom, vcenter or hcenter, "
                    "got '" +
                        std::string(kind.text) + "'");
    }
    if (a.text == b.text) {
      return err_at(line_no_, b.col,
                    "alignment of device '" + std::string(a.text) +
                        "' with itself");
    }
    pa.a = std::string(a.text);
    pa.b = std::string(b.text);
    aligns_.push_back(std::move(pa));
    return {};
  }

  Status handle_order(LineLexer& lex) {
    Token dir;
    if (Status st = expect(lex, "order direction (lr or bt)", dir); !st.ok()) {
      return st;
    }
    PendingOrder po;
    po.line = line_no_;
    if (dir.text == "lr") {
      po.dir = OrderDirection::LeftToRight;
    } else if (dir.text == "bt") {
      po.dir = OrderDirection::BottomToTop;
    } else {
      return err_at(line_no_, dir.col,
                    "expected order direction lr or bt, got '" +
                        std::string(dir.text) + "'");
    }
    Token d;
    while (lex.next(d)) {
      for (const std::string& prev : po.devices) {
        if (prev == d.text) {
          return err_at(line_no_, d.col,
                        "device '" + std::string(d.text) +
                            "' listed twice in one ordering");
        }
      }
      po.devices.emplace_back(d.text);
    }
    if (po.devices.size() < 2) {
      return err_at(line_no_, lex.column(),
                    "ordering needs at least two devices");
    }
    orders_.push_back(std::move(po));
    return {};
  }

  Status handle_centroid(LineLexer& lex) {
    PendingCentroid pc;
    pc.line = line_no_;
    static constexpr std::array<const char*, 4> kWhat = {
        "first diagonal device", "first diagonal partner",
        "second diagonal device", "second diagonal partner"};
    std::array<Token, 4> toks;
    for (std::size_t i = 0; i < 4; ++i) {
      if (Status st = expect(lex, kWhat[i], toks[i]); !st.ok()) return st;
      for (std::size_t j = 0; j < i; ++j) {
        if (toks[j].text == toks[i].text) {
          return err_at(line_no_, toks[i].col,
                        "common-centroid quad needs four distinct devices; '" +
                            std::string(toks[i].text) + "' repeats");
        }
      }
      pc.quad[i] = std::string(toks[i].text);
    }
    if (Status st = expect_end(lex); !st.ok()) return st;
    centroids_.push_back(std::move(pc));
    return {};
  }

  // -- stage 2: resolve names, attach constraints, finalize -----------------

  Status find_dev(const std::string& name, long line, const char* ctx,
                  DeviceId& out) const {
    out = circuit_.find_device(name);
    if (!out.valid()) {
      return err_line(line, std::string(ctx) + ": unknown device '" + name +
                                "'");
    }
    return {};
  }

  Status resolve() {
    if (circuit_.num_devices() == 0) {
      return Status::invalid_input("circuit '" + circuit_.name() +
                                   "' has no devices");
    }

    // Nets: every pin reference must name a declared pin, and a pin sits on
    // at most one net.
    std::map<std::string, std::pair<std::string, long>, std::less<>>
        connected;  // "dev.pin" -> (net, line)
    for (PendingNet& pn : nets_) {
      std::vector<PinId> pins;
      pins.reserve(pn.pins.size());
      for (const PinRef& pr : pn.pins) {
        const auto it = pin_by_name_.find(pr.ref);
        if (it == pin_by_name_.end()) {
          return err_at(pn.line, pr.col,
                        "net '" + pn.name + "': unknown pin '" + pr.ref +
                            "'");
        }
        const auto [cit, fresh] =
            connected.emplace(pr.ref, std::make_pair(pn.name, pn.line));
        if (!fresh) {
          return err_at(pn.line, pr.col,
                        "pin '" + pr.ref + "' already on net '" +
                            cit->second.first + "' (" +
                            loc(cit->second.second) + ")");
        }
        pins.push_back(it->second);
      }
      circuit_.add_net(std::move(pn.name), std::move(pins), pn.weight,
                       pn.critical);
    }
    // Declared-but-unconnected pins would fail finalize(); report the pin's
    // own line instead.
    for (const auto& [key, line] : pin_line_) {
      if (!connected.contains(key)) {
        return err_line(line,
                        "pin '" + key + "' is not connected to any net");
      }
    }

    // Symmetry groups: membership is exclusive and mirrored pairs need
    // matching footprints.
    std::map<std::string, long, std::less<>> in_group;
    for (const PendingSym& ps : syms_) {
      netlist::SymmetryGroup g;
      g.axis = ps.axis;
      auto claim = [&](const std::string& name) -> Status {
        const auto [it, fresh] = in_group.emplace(name, ps.line);
        if (!fresh) {
          return err_line(ps.line, "device '" + name +
                                       "' in two symmetry groups (also " +
                                       loc(it->second) + ")");
        }
        return {};
      };
      for (const auto& [a, b] : ps.pairs) {
        if (a == b) {
          return err_line(ps.line,
                          "symmetry pair of device '" + a + "' with itself");
        }
        DeviceId ia, ib;
        if (Status st = find_dev(a, ps.line, "sym", ia); !st.ok()) return st;
        if (Status st = find_dev(b, ps.line, "sym", ib); !st.ok()) return st;
        if (Status st = claim(a); !st.ok()) return st;
        if (Status st = claim(b); !st.ok()) return st;
        const netlist::Device& da = circuit_.device(ia);
        const netlist::Device& db = circuit_.device(ib);
        if (da.width != db.width || da.height != db.height) {
          return err_line(ps.line,
                          "symmetry pair '" + a + "'/'" + b +
                              "' footprint mismatch (" + num_str(da.width) +
                              " x " + num_str(da.height) + " vs " +
                              num_str(db.width) + " x " + num_str(db.height) +
                              ")");
        }
        g.pairs.emplace_back(ia, ib);
      }
      for (const std::string& d : ps.selfs) {
        DeviceId id;
        if (Status st = find_dev(d, ps.line, "sym", id); !st.ok()) return st;
        if (Status st = claim(d); !st.ok()) return st;
        g.self_symmetric.push_back(id);
      }
      circuit_.add_symmetry_group(std::move(g));
    }

    for (const PendingAlign& pa : aligns_) {
      AlignmentKind kind = pa.kind;
      DeviceId a, b;
      if (Status st = find_dev(pa.a, pa.line, "align", a); !st.ok()) return st;
      if (Status st = find_dev(pa.b, pa.line, "align", b); !st.ok()) return st;
      circuit_.add_alignment({kind, a, b});
    }

    for (const PendingOrder& po : orders_) {
      netlist::OrderingConstraint oc;
      oc.direction = po.dir;
      for (const std::string& d : po.devices) {
        DeviceId id;
        if (Status st = find_dev(d, po.line, "order", id); !st.ok()) return st;
        oc.devices.push_back(id);
      }
      circuit_.add_ordering(std::move(oc));
    }

    for (const PendingCentroid& pc : centroids_) {
      std::array<DeviceId, 4> q;
      for (std::size_t i = 0; i < 4; ++i) {
        if (Status st = find_dev(pc.quad[i], pc.line, "centroid", q[i]);
            !st.ok()) {
          return st;
        }
      }
      const netlist::Device& a1 = circuit_.device(q[0]);
      const netlist::Device& a2 = circuit_.device(q[1]);
      const netlist::Device& b1 = circuit_.device(q[2]);
      const netlist::Device& b2 = circuit_.device(q[3]);
      if (a1.width != a2.width || a1.height != a2.height ||
          b1.width != b2.width || b1.height != b2.height) {
        return err_line(pc.line,
                        "common centroid: diagonal footprint mismatch");
      }
      circuit_.add_common_centroid({q[0], q[1], q[2], q[3]});
    }

    try {
      circuit_.finalize();
    } catch (const CheckError& e) {
      // Every finalize() precondition is pre-checked above with a better
      // message; this converts anything missed instead of throwing.
      return Status::invalid_input(std::string("circuit validation: ") +
                                   e.what());
    }
    return {};
  }

  netlist::Circuit circuit_;
  bool named_ = false;
  long circuit_line_ = 0;
  std::map<std::string, long, std::less<>> device_line_;
  std::map<std::string, long, std::less<>> net_line_;
  std::map<std::string, long, std::less<>> pin_line_;  ///< "dev.pin" -> line
  std::map<std::string, PinId, std::less<>> pin_by_name_;
  std::vector<PendingNet> nets_;
  std::vector<PendingSym> syms_;
  std::vector<PendingAlign> aligns_;
  std::vector<PendingOrder> orders_;
  std::vector<PendingCentroid> centroids_;
};

// ---- placement parsing ----------------------------------------------------

class PlacementParser : ParserBase {
 public:
  explicit PlacementParser(const netlist::Circuit& circuit)
      : circuit_(&circuit) {}

  Result<netlist::Placement> run(const std::string& text) {
    netlist::Placement pl(*circuit_);
    Status st = for_each_line(text, [&](const Token& tok, LineLexer& lex) {
      return handle_directive(pl, tok, lex);
    });
    if (st.ok() && place_line_.size() != circuit_->num_devices()) {
      std::string missing;
      for (const netlist::Device& d : circuit_->devices()) {
        if (!place_line_.contains(d.name)) {
          missing = d.name;
          break;
        }
      }
      st = Status::invalid_input(
          "placement covers " + std::to_string(place_line_.size()) + " of " +
          std::to_string(circuit_->num_devices()) + " devices; missing '" +
          missing + "'");
    }
    if (!st.ok()) {
      st.add_context("parsing .aplc text for circuit '" + circuit_->name() +
                     "'");
      return st;
    }
    return pl;
  }

 private:
  Status handle_directive(netlist::Placement& pl, const Token& tok,
                          LineLexer& lex) {
    if (tok.text == "placement") return handle_header(tok, lex);
    if (tok.text == "place") return handle_place(pl, lex);
    return err_at(line_no_, tok.col,
                  "unknown directive '" + std::string(tok.text) + "'");
  }

  Status handle_header(const Token& tok, LineLexer& lex) {
    if (header_line_ != 0) {
      return err_at(line_no_, tok.col,
                    "duplicate 'placement' directive (first at " +
                        loc(header_line_) + ")");
    }
    header_line_ = line_no_;
    Token name;
    if (Status st = expect(lex, "circuit name", name); !st.ok()) return st;
    if (Status st = expect_end(lex); !st.ok()) return st;
    if (name.text != circuit_->name()) {
      return err_at(line_no_, name.col,
                    "placement is for circuit '" + std::string(name.text) +
                        "', expected '" + circuit_->name() + "'");
    }
    return {};
  }

  Status handle_place(netlist::Placement& pl, LineLexer& lex) {
    Token name, xt, yt;
    if (Status st = expect(lex, "device name", name); !st.ok()) return st;
    if (Status st = expect(lex, "x coordinate", xt); !st.ok()) return st;
    if (Status st = expect(lex, "y coordinate", yt); !st.ok()) return st;

    const DeviceId id = circuit_->find_device(std::string(name.text));
    if (!id.valid()) {
      return err_at(line_no_, name.col,
                    "unknown device '" + std::string(name.text) + "'");
    }
    const auto [it, fresh] =
        place_line_.emplace(std::string(name.text), line_no_);
    if (!fresh) {
      return err_at(line_no_, name.col,
                    "duplicate 'place' for device '" + std::string(name.text) +
                        "' (first at " + loc(it->second) + ")");
    }
    double x = 0, y = 0;
    if (Status st = parse_double(xt, "x coordinate", x); !st.ok()) return st;
    if (Status st = parse_double(yt, "y coordinate", y); !st.ok()) return st;
    geom::Orientation o;
    Token flag;
    while (lex.next(flag)) {
      if (flag.text == "FX") {
        o.flip_x = true;
      } else if (flag.text == "FY") {
        o.flip_y = true;
      } else {
        return err_at(line_no_, flag.col,
                      "expected flag FX or FY, got '" +
                          std::string(flag.text) + "'");
      }
    }
    pl.set_position(id, {x, y});
    pl.set_orientation(id, o);
    return {};
  }

  const netlist::Circuit* circuit_;
  long header_line_ = 0;
  std::map<std::string, long, std::less<>> place_line_;
};

// ---- files ----------------------------------------------------------------

Status read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::invalid_input("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  if (in.bad()) {
    return Status::invalid_input("read from '" + path + "' failed");
  }
  out = os.str();
  return {};
}

Status write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    return Status::invalid_input("cannot open '" + path + "' for writing");
  }
  out << text;
  out.flush();
  if (!out.good()) {
    return Status::invalid_input("write to '" + path + "' failed");
  }
  return {};
}

}  // namespace

std::string circuit_to_text(const netlist::Circuit& c) {
  std::string os;
  os += "circuit ";
  os += c.name();
  os += "\n";
  for (const netlist::Device& d : c.devices()) {
    os += "device ";
    os += d.name;
    os += ' ';
    os += type_token(d.type);
    os += ' ';
    append_double(os, d.width);
    os += ' ';
    append_double(os, d.height);
    os += "\n";
  }
  for (const netlist::Pin& p : c.pins()) {
    os += "pin ";
    os += c.device(p.device).name;
    os += ' ';
    os += p.name;
    os += ' ';
    append_double(os, p.offset.x);
    os += ' ';
    append_double(os, p.offset.y);
    os += "\n";
  }
  for (const netlist::Net& net : c.nets()) {
    os += "net ";
    os += net.name;
    os += ' ';
    append_double(os, net.weight);
    os += ' ';
    os += net.critical ? '1' : '0';
    for (PinId pid : net.pins) {
      const netlist::Pin& p = c.pin(pid);
      os += ' ';
      os += c.device(p.device).name;
      os += '.';
      os += p.name;
    }
    os += "\n";
  }
  for (const netlist::SymmetryGroup& g : c.constraints().symmetry_groups) {
    os += "sym ";
    os += g.axis == Axis::Vertical ? 'V' : 'H';
    for (auto [a, b] : g.pairs) {
      os += " pair ";
      os += c.device(a).name;
      os += ' ';
      os += c.device(b).name;
    }
    for (DeviceId d : g.self_symmetric) {
      os += " self ";
      os += c.device(d).name;
    }
    os += "\n";
  }
  for (const netlist::AlignmentPair& a : c.constraints().alignments) {
    const char* kind = a.kind == AlignmentKind::Bottom ? "bottom"
                       : a.kind == AlignmentKind::VerticalCenter ? "vcenter"
                                                                 : "hcenter";
    os += "align ";
    os += kind;
    os += ' ';
    os += c.device(a.a).name;
    os += ' ';
    os += c.device(a.b).name;
    os += "\n";
  }
  for (const netlist::OrderingConstraint& o : c.constraints().orderings) {
    os += "order ";
    os += o.direction == OrderDirection::LeftToRight ? "lr" : "bt";
    for (DeviceId d : o.devices) {
      os += ' ';
      os += c.device(d).name;
    }
    os += "\n";
  }
  for (const netlist::CommonCentroidQuad& q :
       c.constraints().common_centroids) {
    os += "centroid ";
    os += c.device(q.a1).name;
    os += ' ';
    os += c.device(q.a2).name;
    os += ' ';
    os += c.device(q.b1).name;
    os += ' ';
    os += c.device(q.b2).name;
    os += "\n";
  }
  return os;
}

Result<netlist::Circuit> circuit_from_text(const std::string& text) {
  return CircuitParser().run(text);
}

std::string placement_to_text(const netlist::Placement& pl) {
  const netlist::Circuit& c = pl.circuit();
  std::string os;
  os += "placement ";
  os += c.name();
  os += "\n";
  for (std::size_t i = 0; i < c.num_devices(); ++i) {
    const DeviceId id{i};
    const geom::Point p = pl.position(id);
    const geom::Orientation o = pl.orientation(id);
    os += "place ";
    os += c.device(id).name;
    os += ' ';
    append_double(os, p.x);
    os += ' ';
    append_double(os, p.y);
    if (o.flip_x) os += " FX";
    if (o.flip_y) os += " FY";
    os += "\n";
  }
  return os;
}

Result<netlist::Placement> placement_from_text(const netlist::Circuit& circuit,
                                               const std::string& text) {
  return PlacementParser(circuit).run(text);
}

Status write_circuit(const netlist::Circuit& circuit, const std::string& path) {
  return write_file(path, circuit_to_text(circuit));
}

Result<netlist::Circuit> read_circuit(const std::string& path) {
  std::string text;
  if (Status st = read_file(path, text); !st.ok()) return st;
  Result<netlist::Circuit> parsed = circuit_from_text(text);
  if (!parsed.ok()) {
    Status st = parsed.status();
    st.add_context("file '" + path + "'");
    return st;
  }
  return parsed;
}

Status write_placement(const netlist::Placement& placement,
                       const std::string& path) {
  return write_file(path, placement_to_text(placement));
}

Result<netlist::Placement> read_placement(const netlist::Circuit& circuit,
                                          const std::string& path) {
  std::string text;
  if (Status st = read_file(path, text); !st.ok()) return st;
  Result<netlist::Placement> parsed = placement_from_text(circuit, text);
  if (!parsed.ok()) {
    Status st = parsed.status();
    st.add_context("file '" + path + "'");
    return st;
  }
  return parsed;
}

}  // namespace aplace::io
