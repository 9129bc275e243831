#pragma once
// Circuit: the immutable-after-build netlist database all placers consume.
//
// Build pattern: add devices, add pins, create nets from pin lists, attach
// constraint groups, then call finalize(). finalize() validates referential
// integrity (every pin on a net, ids in range, constraint groups referencing
// real devices) and freezes the structure; placers then only vary positions
// via the Placement class.

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/check.hpp"
#include "base/ids.hpp"
#include "netlist/constraints.hpp"
#include "netlist/device.hpp"
#include "netlist/net.hpp"

namespace aplace::netlist {

class Circuit {
 public:
  explicit Circuit(std::string name = "circuit") : name_(std::move(name)) {}

  // ---- construction -------------------------------------------------------
  DeviceId add_device(std::string name, DeviceType type, double width,
                      double height);
  /// Add a pin to a device; offset measured from the device lower-left
  /// corner in the unflipped orientation. Must lie inside the footprint.
  PinId add_pin(DeviceId device, std::string name, geom::Point offset);
  /// Convenience: pin at the device center.
  PinId add_center_pin(DeviceId device, std::string name);
  NetId add_net(std::string name, std::vector<PinId> pins, double weight = 1.0,
                bool critical = false);

  void add_symmetry_group(SymmetryGroup g);
  void add_alignment(AlignmentPair p);
  void add_ordering(OrderingConstraint c);
  void add_common_centroid(CommonCentroidQuad q);

  /// Validate and freeze. Throws CheckError on inconsistency.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// FNV-1a64 over a canonical serialization of the whole netlist (devices,
  /// pins, nets, constraints). Computed eagerly by finalize() so concurrent
  /// readers never race on lazy initialization. Two circuits with equal
  /// digests compile to identical CompiledCircuit tables; the batch layer
  /// keys its compile cache and journal drift checks on it.
  [[nodiscard]] std::uint64_t digest() const {
    APLACE_DCHECK(finalized_);
    return digest_;
  }

  // ---- read access ---------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_devices() const { return devices_.size(); }
  [[nodiscard]] std::size_t num_pins() const { return pins_.size(); }
  [[nodiscard]] std::size_t num_nets() const { return nets_.size(); }

  [[nodiscard]] const Device& device(DeviceId id) const {
    APLACE_DCHECK(id.index() < devices_.size());
    return devices_[id.index()];
  }
  [[nodiscard]] const Pin& pin(PinId id) const {
    APLACE_DCHECK(id.index() < pins_.size());
    return pins_[id.index()];
  }
  [[nodiscard]] const Net& net(NetId id) const {
    APLACE_DCHECK(id.index() < nets_.size());
    return nets_[id.index()];
  }

  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  [[nodiscard]] const std::vector<Pin>& pins() const { return pins_; }
  [[nodiscard]] const std::vector<Net>& nets() const { return nets_; }
  [[nodiscard]] const ConstraintSet& constraints() const {
    return constraints_;
  }

  /// Lookup by name; returns invalid id when absent.
  [[nodiscard]] DeviceId find_device(const std::string& name) const;

  /// Sum of device footprints.
  [[nodiscard]] double total_device_area() const;

  /// Nets incident to a device (deduplicated: a device with several pins on
  /// one net lists it once), in ascending net order. Built by finalize();
  /// the backbone of incremental (dirty-net) cost evaluation.
  [[nodiscard]] std::span<const NetId> nets_of(DeviceId id) const {
    APLACE_DCHECK(finalized_ && id.index() < devices_.size());
    return {device_nets_.data() + device_net_offset_[id.index()],
            device_net_offset_[id.index() + 1] -
                device_net_offset_[id.index()]};
  }

 private:
  void require_mutable() const {
    APLACE_CHECK_MSG(!finalized_, "circuit '" << name_ << "' is finalized");
  }

  void build_device_net_adjacency();
  [[nodiscard]] std::uint64_t compute_digest() const;

  std::string name_;
  std::vector<Device> devices_;
  std::vector<Pin> pins_;
  std::vector<Net> nets_;
  // CSR device -> incident nets (deduped), filled by finalize().
  std::vector<std::size_t> device_net_offset_;
  std::vector<NetId> device_nets_;
  ConstraintSet constraints_;
  std::unordered_map<std::string, DeviceId> device_by_name_;
  std::unordered_map<std::string, NetId> net_by_name_;
  std::uint64_t digest_ = 0;
  bool finalized_ = false;
};

}  // namespace aplace::netlist
