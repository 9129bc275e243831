#include "netlist/circuit.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "base/fnv.hpp"

namespace aplace::netlist {

const char* to_string(DeviceType t) {
  switch (t) {
    case DeviceType::Nmos: return "nmos";
    case DeviceType::Pmos: return "pmos";
    case DeviceType::Capacitor: return "cap";
    case DeviceType::Resistor: return "res";
    case DeviceType::Inductor: return "ind";
    case DeviceType::Diode: return "diode";
    case DeviceType::Module: return "module";
  }
  return "?";
}

DeviceId Circuit::add_device(std::string name, DeviceType type, double width,
                             double height) {
  require_mutable();
  APLACE_CHECK_MSG(width > 0 && height > 0,
                   "device '" << name << "' needs positive footprint");
  APLACE_CHECK_MSG(!device_by_name_.contains(name),
                   "duplicate device name '" << name << "'");
  DeviceId id(devices_.size());
  devices_.push_back(Device{std::move(name), type, width, height, {}});
  device_by_name_.emplace(devices_.back().name, id);
  return id;
}

PinId Circuit::add_pin(DeviceId device, std::string name, geom::Point offset) {
  require_mutable();
  APLACE_CHECK(device.index() < devices_.size());
  Device& dev = devices_[device.index()];
  APLACE_CHECK_MSG(offset.x >= 0 && offset.x <= dev.width && offset.y >= 0 &&
                       offset.y <= dev.height,
                   "pin '" << name << "' offset " << offset
                           << " outside device '" << dev.name << "' footprint");
  PinId id(pins_.size());
  pins_.push_back(Pin{std::move(name), device, offset, NetId{}});
  dev.pins.push_back(id);
  return id;
}

PinId Circuit::add_center_pin(DeviceId device, std::string name) {
  APLACE_CHECK(device.index() < devices_.size());
  const Device& dev = devices_[device.index()];
  return add_pin(device, std::move(name), {dev.width / 2, dev.height / 2});
}

NetId Circuit::add_net(std::string name, std::vector<PinId> pins,
                       double weight, bool critical) {
  require_mutable();
  // Single-pin (dangling) nets are legal — they contribute nothing to
  // wirelength and every consumer skips them — but a pinless net is a bug.
  APLACE_CHECK_MSG(!pins.empty(), "net '" << name << "' needs at least one pin");
  APLACE_CHECK_MSG(!net_by_name_.contains(name),
                   "duplicate net name '" << name << "'");
  APLACE_CHECK_MSG(weight > 0, "net '" << name << "' weight must be positive");
  NetId id(nets_.size());
  for (PinId p : pins) {
    APLACE_CHECK(p.index() < pins_.size());
    APLACE_CHECK_MSG(!pins_[p.index()].net.valid(),
                     "pin already connected to a net");
    pins_[p.index()].net = id;
  }
  nets_.push_back(Net{std::move(name), std::move(pins), weight, critical});
  net_by_name_.emplace(nets_.back().name, id);
  return id;
}

void Circuit::add_symmetry_group(SymmetryGroup g) {
  require_mutable();
  APLACE_CHECK_MSG(!g.pairs.empty() || !g.self_symmetric.empty(),
                   "empty symmetry group");
  constraints_.symmetry_groups.push_back(std::move(g));
}

void Circuit::add_alignment(AlignmentPair p) {
  require_mutable();
  APLACE_CHECK(p.a != p.b);
  constraints_.alignments.push_back(p);
}

void Circuit::add_ordering(OrderingConstraint c) {
  require_mutable();
  APLACE_CHECK_MSG(c.devices.size() >= 2, "ordering needs >= 2 devices");
  constraints_.orderings.push_back(std::move(c));
}

void Circuit::add_common_centroid(CommonCentroidQuad q) {
  require_mutable();
  APLACE_CHECK_MSG(q.a1 != q.a2 && q.b1 != q.b2 && q.a1 != q.b1 &&
                       q.a1 != q.b2 && q.a2 != q.b1 && q.a2 != q.b2,
                   "common-centroid quad needs four distinct devices");
  constraints_.common_centroids.push_back(q);
}

void Circuit::finalize() {
  require_mutable();
  APLACE_CHECK_MSG(!devices_.empty(), "circuit has no devices");

  auto valid_device = [&](DeviceId id) {
    return id.valid() && id.index() < devices_.size();
  };

  // Every symmetry group member must be a real device and appear in at most
  // one group (overlapping groups would make the ILP infeasible).
  std::unordered_set<DeviceId> in_group;
  for (const SymmetryGroup& g : constraints_.symmetry_groups) {
    auto claim = [&](DeviceId id) {
      APLACE_CHECK_MSG(valid_device(id), "symmetry group: bad device id");
      APLACE_CHECK_MSG(in_group.insert(id).second,
                       "device '" << devices_[id.index()].name
                                  << "' in two symmetry groups");
    };
    for (auto [a, b] : g.pairs) {
      APLACE_CHECK_MSG(a != b, "symmetry pair of a device with itself");
      claim(a);
      claim(b);
    }
    for (DeviceId d : g.self_symmetric) claim(d);
    // Mirrored pairs must share footprints or the mirror is geometrically
    // impossible on a common axis.
    for (auto [a, b] : g.pairs) {
      const Device& da = devices_[a.index()];
      const Device& db = devices_[b.index()];
      APLACE_CHECK_MSG(da.width == db.width && da.height == db.height,
                       "symmetry pair '" << da.name << "'/'" << db.name
                                         << "' footprint mismatch");
    }
  }
  for (const AlignmentPair& p : constraints_.alignments) {
    APLACE_CHECK(valid_device(p.a) && valid_device(p.b));
  }
  for (const OrderingConstraint& c : constraints_.orderings) {
    std::unordered_set<DeviceId> seen;
    for (DeviceId d : c.devices) {
      APLACE_CHECK(valid_device(d));
      APLACE_CHECK_MSG(seen.insert(d).second, "duplicate device in ordering");
    }
  }
  for (const CommonCentroidQuad& q : constraints_.common_centroids) {
    for (DeviceId d : {q.a1, q.a2, q.b1, q.b2}) {
      APLACE_CHECK_MSG(valid_device(d), "common centroid: bad device id");
    }
    // Matched devices should share footprints within each diagonal.
    const Device& a1 = devices_[q.a1.index()];
    const Device& a2 = devices_[q.a2.index()];
    const Device& b1 = devices_[q.b1.index()];
    const Device& b2 = devices_[q.b2.index()];
    APLACE_CHECK_MSG(a1.width == a2.width && a1.height == a2.height &&
                         b1.width == b2.width && b1.height == b2.height,
                     "common centroid: diagonal footprint mismatch");
  }
  for (const Pin& p : pins_) {
    APLACE_CHECK_MSG(p.net.valid(),
                     "pin '" << p.name << "' left unconnected; every pin "
                             "must be on a net before finalize()");
  }
  build_device_net_adjacency();
  digest_ = compute_digest();
  finalized_ = true;
}

std::uint64_t Circuit::compute_digest() const {
  // Canonical serialization: every structural field in registration order,
  // strings null-terminated, numbers as raw little-endian bit patterns (the
  // build is single-platform; doubles hash their exact bits).
  std::uint64_t h = base::kFnvOffsetBasis;
  auto mix_bytes = [&](const void* p, std::size_t n) {
    h = base::fnv1a64_accumulate(
        h, std::string_view(static_cast<const char*>(p), n));
  };
  auto mix_str = [&](const std::string& s) {
    mix_bytes(s.data(), s.size());
    const char zero = '\0';
    mix_bytes(&zero, 1);
  };
  auto mix_u64 = [&](std::uint64_t v) { mix_bytes(&v, sizeof v); };
  auto mix_f64 = [&](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix_u64(bits);
  };

  mix_str(name_);
  mix_u64(devices_.size());
  for (const Device& d : devices_) {
    mix_str(d.name);
    mix_u64(static_cast<std::uint64_t>(d.type));
    mix_f64(d.width);
    mix_f64(d.height);
  }
  mix_u64(pins_.size());
  for (const Pin& p : pins_) {
    mix_str(p.name);
    mix_u64(p.device.index());
    mix_f64(p.offset.x);
    mix_f64(p.offset.y);
  }
  mix_u64(nets_.size());
  for (const Net& n : nets_) {
    mix_str(n.name);
    mix_f64(n.weight);
    mix_u64(n.critical ? 1 : 0);
    mix_u64(n.pins.size());
    for (PinId p : n.pins) mix_u64(p.index());
  }
  mix_u64(constraints_.symmetry_groups.size());
  for (const SymmetryGroup& g : constraints_.symmetry_groups) {
    mix_u64(static_cast<std::uint64_t>(g.axis));
    mix_u64(g.pairs.size());
    for (auto [a, b] : g.pairs) {
      mix_u64(a.index());
      mix_u64(b.index());
    }
    mix_u64(g.self_symmetric.size());
    for (DeviceId d : g.self_symmetric) mix_u64(d.index());
  }
  mix_u64(constraints_.alignments.size());
  for (const AlignmentPair& p : constraints_.alignments) {
    mix_u64(static_cast<std::uint64_t>(p.kind));
    mix_u64(p.a.index());
    mix_u64(p.b.index());
  }
  mix_u64(constraints_.orderings.size());
  for (const OrderingConstraint& c : constraints_.orderings) {
    mix_u64(static_cast<std::uint64_t>(c.direction));
    mix_u64(c.devices.size());
    for (DeviceId d : c.devices) mix_u64(d.index());
  }
  mix_u64(constraints_.common_centroids.size());
  for (const CommonCentroidQuad& q : constraints_.common_centroids) {
    mix_u64(q.a1.index());
    mix_u64(q.a2.index());
    mix_u64(q.b1.index());
    mix_u64(q.b2.index());
  }
  return h;
}

void Circuit::build_device_net_adjacency() {
  const std::size_t n = devices_.size();
  device_net_offset_.assign(n + 1, 0);
  device_nets_.clear();
  // Pins are grouped per device already; nets_of must be deduplicated, so
  // collect per device with a net-indexed stamp array.
  std::vector<std::size_t> stamp(nets_.size(), static_cast<std::size_t>(-1));
  for (std::size_t d = 0; d < n; ++d) {
    for (PinId pid : devices_[d].pins) {
      const NetId net = pins_[pid.index()].net;
      if (stamp[net.index()] != d) {
        stamp[net.index()] = d;
        device_nets_.push_back(net);
      }
    }
    device_net_offset_[d + 1] = device_nets_.size();
    // Ascending net order keeps dirty-net iteration deterministic and
    // cache-friendly regardless of pin declaration order.
    std::sort(device_nets_.begin() +
                  static_cast<std::ptrdiff_t>(device_net_offset_[d]),
              device_nets_.end(),
              [](NetId a, NetId b) { return a.index() < b.index(); });
  }
}

DeviceId Circuit::find_device(const std::string& name) const {
  auto it = device_by_name_.find(name);
  return it == device_by_name_.end() ? DeviceId{} : it->second;
}

double Circuit::total_device_area() const {
  double a = 0;
  for (const Device& d : devices_) a += d.area();
  return a;
}

}  // namespace aplace::netlist
