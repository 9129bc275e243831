#pragma once
// Placement: positions + orientations for every device of a Circuit.
//
// Device coordinates are *centers* (matching the paper's formulation where
// x_i is the center of device i). The class provides the geometric queries
// every engine needs: device rectangles, pin positions under flipping, net
// bounding boxes, HPWL and the layout bounding box.

#include <vector>

#include "geom/orientation.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "netlist/circuit.hpp"

namespace aplace::netlist {

class Placement {
 public:
  /// All devices at the origin, unflipped.
  explicit Placement(const Circuit& circuit);

  [[nodiscard]] const Circuit& circuit() const { return *circuit_; }

  // ---- device state --------------------------------------------------------
  [[nodiscard]] geom::Point position(DeviceId id) const {
    return positions_[id.index()];
  }
  void set_position(DeviceId id, geom::Point center) {
    positions_[id.index()] = center;
  }
  [[nodiscard]] geom::Orientation orientation(DeviceId id) const {
    return orientations_[id.index()];
  }
  void set_orientation(DeviceId id, geom::Orientation o) {
    orientations_[id.index()] = o;
  }

  [[nodiscard]] const std::vector<geom::Point>& positions() const {
    return positions_;
  }
  [[nodiscard]] const std::vector<geom::Orientation>& orientations() const {
    return orientations_;
  }

  // ---- geometry queries ----------------------------------------------------
  [[nodiscard]] geom::Rect device_rect(DeviceId id) const;
  /// Pin position under the device's current orientation.
  [[nodiscard]] geom::Point pin_position(PinId id) const;
  /// Net bounding box over pin positions.
  [[nodiscard]] geom::Rect net_bbox(NetId id) const;
  /// HPWL of one net (net weight NOT applied).
  [[nodiscard]] double net_hpwl(NetId id) const;
  /// Total weighted HPWL over all nets.
  [[nodiscard]] double total_hpwl() const;
  /// Bounding box over all device rectangles.
  [[nodiscard]] geom::Rect bounding_box() const;
  /// Area of the bounding box (the paper's layout-area metric).
  [[nodiscard]] double layout_area() const { return bounding_box().area(); }
  /// Sum of pairwise device overlap areas (0 for a legal placement).
  [[nodiscard]] double total_overlap_area() const;

  /// Translate everything so the layout bounding box starts at (0, 0).
  void normalize_to_origin();

 private:
  const Circuit* circuit_;
  std::vector<geom::Point> positions_;          ///< device centers
  std::vector<geom::Orientation> orientations_;
};

}  // namespace aplace::netlist
