#include "netlist/compiled.hpp"

#include <algorithm>

namespace aplace::netlist {

PlacementState PlacementState::from_placement(const Placement& p) {
  const std::size_t n = p.positions().size();
  PlacementState s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.x[i] = p.positions()[i].x;
    s.y[i] = p.positions()[i].y;
    s.orient[i] = p.orientations()[i];
  }
  return s;
}

void PlacementState::apply_to(Placement& p) const {
  APLACE_CHECK(p.positions().size() == size());
  for (std::size_t i = 0; i < size(); ++i) {
    const DeviceId id(i);
    p.set_position(id, {x[i], y[i]});
    p.set_orientation(id, orient[i]);
  }
}

Placement PlacementState::to_placement(const Circuit& circuit) const {
  Placement p(circuit);
  apply_to(p);
  return p;
}

CompiledCircuit::CompiledCircuit(const Circuit& c) : circuit_(&c) {
  APLACE_CHECK_MSG(c.finalized(), "compile requires a finalized circuit");
  const std::size_t nd = c.num_devices();
  const std::size_t np = c.num_pins();
  const std::size_t nn = c.num_nets();

  // ---- flat device arrays --------------------------------------------------
  dev_width_.resize(nd);
  dev_height_.resize(nd);
  dev_area_.resize(nd);
  dev_half_width_.resize(nd);
  dev_half_height_.resize(nd);
  dev_type_.resize(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    const Device& dev = c.devices()[d];
    dev_width_[d] = dev.width;
    dev_height_[d] = dev.height;
    dev_area_[d] = dev.area();
    dev_half_width_[d] = dev.width / 2;
    dev_half_height_[d] = dev.height / 2;
    dev_type_[d] = dev.type;
    total_device_area_ += dev.area();
  }

  // ---- flat pin arrays -----------------------------------------------------
  pin_offset_x_.resize(np);
  pin_offset_y_.resize(np);
  pin_device_.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    const Pin& pin = c.pins()[p];
    pin_offset_x_[p] = pin.offset.x;
    pin_offset_y_[p] = pin.offset.y;
    pin_device_[p] = static_cast<std::uint32_t>(pin.device.index());
  }

  // ---- flat net arrays + net->pin CSR (declaration order) ------------------
  net_weight_.resize(nn);
  net_critical_.resize(nn);
  net_pin_off_.assign(nn + 1, 0);
  for (std::size_t n = 0; n < nn; ++n) {
    const Net& net = c.nets()[n];
    net_weight_[n] = net.weight;
    net_critical_[n] = net.critical ? 1 : 0;
    for (PinId pid : net.pins) {
      net_pins_.push_back(static_cast<std::uint32_t>(pid.index()));
    }
    net_pin_off_[n + 1] = net_pins_.size();
  }

  // ---- device->net CSR (deduped, ascending — mirrors Circuit::nets_of) -----
  dev_net_off_.assign(nd + 1, 0);
  for (std::size_t d = 0; d < nd; ++d) {
    for (NetId nid : c.nets_of(DeviceId(d))) {
      dev_nets_.push_back(static_cast<std::uint32_t>(nid.index()));
    }
    dev_net_off_[d + 1] = dev_nets_.size();
  }

  // ---- net->device CSR (deduped via sort+unique, ascending) ----------------
  net_dev_off_.assign(nn + 1, 0);
  {
    std::vector<std::uint32_t> devs;
    for (std::size_t n = 0; n < nn; ++n) {
      devs.clear();
      for (PinId pid : c.nets()[n].pins) {
        devs.push_back(static_cast<std::uint32_t>(c.pin(pid).device.index()));
      }
      std::sort(devs.begin(), devs.end());
      devs.erase(std::unique(devs.begin(), devs.end()), devs.end());
      net_devs_.insert(net_devs_.end(), devs.begin(), devs.end());
      net_dev_off_[n + 1] = net_devs_.size();
    }
  }

  // ---- wirelength table (>= 2-pin nets, net order) -------------------------
  wl_off_.push_back(0);
  for (std::size_t n = 0; n < nn; ++n) {
    const Net& net = c.nets()[n];
    if (net.pins.size() < 2) continue;  // degenerate: no extent
    for (PinId pid : net.pins) {
      const Pin& pin = c.pin(pid);
      const Device& dev = c.device(pin.device);
      wl_dev_.push_back(static_cast<std::uint32_t>(pin.device.index()));
      wl_dx_.push_back(pin.offset.x - dev.width / 2);
      wl_dy_.push_back(pin.offset.y - dev.height / 2);
    }
    wl_off_.push_back(wl_dev_.size());
    wl_weight_.push_back(net.weight);
  }

  // ---- flattened constraint tables -----------------------------------------
  const ConstraintSet& cs = c.constraints();
  sym_pair_off_.push_back(0);
  sym_self_off_.push_back(0);
  for (const SymmetryGroup& g : cs.symmetry_groups) {
    sym_axis_.push_back(g.axis);
    for (auto [a, b] : g.pairs) {
      sym_pair_a_.push_back(static_cast<std::uint32_t>(a.index()));
      sym_pair_b_.push_back(static_cast<std::uint32_t>(b.index()));
    }
    for (DeviceId d : g.self_symmetric) {
      sym_self_.push_back(static_cast<std::uint32_t>(d.index()));
    }
    sym_pair_off_.push_back(sym_pair_a_.size());
    sym_self_off_.push_back(sym_self_.size());
  }
  for (const AlignmentPair& p : cs.alignments) {
    align_kind_.push_back(p.kind);
    align_a_.push_back(static_cast<std::uint32_t>(p.a.index()));
    align_b_.push_back(static_cast<std::uint32_t>(p.b.index()));
  }
  order_dev_off_.push_back(0);
  for (const OrderingConstraint& o : cs.orderings) {
    order_direction_.push_back(o.direction);
    for (DeviceId d : o.devices) {
      order_devs_.push_back(static_cast<std::uint32_t>(d.index()));
    }
    order_dev_off_.push_back(order_devs_.size());
  }
  for (const CommonCentroidQuad& q : cs.common_centroids) {
    cent_a1_.push_back(static_cast<std::uint32_t>(q.a1.index()));
    cent_a2_.push_back(static_cast<std::uint32_t>(q.a2.index()));
    cent_b1_.push_back(static_cast<std::uint32_t>(q.b1.index()));
    cent_b2_.push_back(static_cast<std::uint32_t>(q.b2.index()));
  }
}

}  // namespace aplace::netlist
