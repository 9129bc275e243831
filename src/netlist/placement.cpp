#include "netlist/placement.hpp"

#include <limits>

namespace aplace::netlist {

Placement::Placement(const Circuit& circuit)
    : circuit_(&circuit),
      positions_(circuit.num_devices()),
      orientations_(circuit.num_devices()) {
  APLACE_CHECK_MSG(circuit.finalized(),
                   "placement requires a finalized circuit");
}

geom::Rect Placement::device_rect(DeviceId id) const {
  const Device& d = circuit_->device(id);
  return geom::Rect::centered(positions_[id.index()], d.width, d.height);
}

geom::Point Placement::pin_position(PinId id) const {
  const Pin& pin = circuit_->pin(id);
  const Device& dev = circuit_->device(pin.device);
  const geom::Point local = geom::apply_orientation(
      pin.offset, dev.width, dev.height, orientations_[pin.device.index()]);
  const geom::Point center = positions_[pin.device.index()];
  return {center.x - dev.width / 2 + local.x,
          center.y - dev.height / 2 + local.y};
}

geom::Rect Placement::net_bbox(NetId id) const {
  const Net& net = circuit_->net(id);
  APLACE_DCHECK(!net.pins.empty());
  double xlo = std::numeric_limits<double>::infinity(), xhi = -xlo;
  double ylo = xlo, yhi = -xlo;
  for (PinId p : net.pins) {
    const geom::Point pos = pin_position(p);
    xlo = std::min(xlo, pos.x);
    xhi = std::max(xhi, pos.x);
    ylo = std::min(ylo, pos.y);
    yhi = std::max(yhi, pos.y);
  }
  return {xlo, ylo, xhi, yhi};
}

double Placement::net_hpwl(NetId id) const {
  const geom::Rect bb = net_bbox(id);
  return bb.width() + bb.height();
}

double Placement::total_hpwl() const {
  double total = 0;
  for (std::size_t i = 0; i < circuit_->num_nets(); ++i) {
    const NetId id{i};
    total += circuit_->net(id).weight * net_hpwl(id);
  }
  return total;
}

geom::Rect Placement::bounding_box() const {
  geom::Rect bb;
  bool first = true;
  for (std::size_t i = 0; i < circuit_->num_devices(); ++i) {
    const geom::Rect r = device_rect(DeviceId{i});
    bb = first ? r : bb.united(r);
    first = false;
  }
  return bb;
}

double Placement::total_overlap_area() const {
  double total = 0;
  const std::size_t n = circuit_->num_devices();
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Rect ri = device_rect(DeviceId{i});
    for (std::size_t j = i + 1; j < n; ++j) {
      total += ri.overlap_area(device_rect(DeviceId{j}));
    }
  }
  return total;
}

void Placement::normalize_to_origin() {
  const geom::Rect bb = bounding_box();
  const geom::Point shift{-bb.xlo(), -bb.ylo()};
  for (geom::Point& p : positions_) p += shift;
}

}  // namespace aplace::netlist
