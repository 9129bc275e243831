#pragma once
// Analog geometric constraint groups (paper Sec. IV, Eq. 4f-4i).
//
//  * SymmetryGroup — device pairs mirrored about a common (vertical or
//    horizontal) axis plus self-symmetric devices centered on it. The axis
//    position is a free variable chosen by the placer.
//  * AlignmentPair — bottom alignment (shared bottom edge, 4g) or vertical
//    central alignment (shared x center, 4h).
//  * OrderingConstraint — devices that must appear in a fixed left-to-right
//    (or bottom-to-top) order to realize monotone current paths (4i).

#include <vector>

#include "base/ids.hpp"

namespace aplace::netlist {

enum class Axis : std::uint8_t {
  Vertical,    ///< pairs mirror in x about a vertical line
  Horizontal,  ///< pairs mirror in y about a horizontal line
};

struct SymmetryGroup {
  Axis axis = Axis::Vertical;
  std::vector<std::pair<DeviceId, DeviceId>> pairs;
  std::vector<DeviceId> self_symmetric;
};

enum class AlignmentKind : std::uint8_t {
  Bottom,           ///< equal bottom edges: y_a - h_a/2 == y_b - h_b/2
  VerticalCenter,   ///< equal x centers:   x_a == x_b
  HorizontalCenter, ///< equal y centers:   y_a == y_b
};

struct AlignmentPair {
  AlignmentKind kind = AlignmentKind::Bottom;
  DeviceId a;
  DeviceId b;
};

enum class OrderDirection : std::uint8_t {
  LeftToRight,  ///< increasing x, non-overlapping in x
  BottomToTop,  ///< increasing y, non-overlapping in y
};

struct OrderingConstraint {
  OrderDirection direction = OrderDirection::LeftToRight;
  std::vector<DeviceId> devices;  ///< required order, front = leftmost/bottom
};

/// Common-centroid quad (classic matched-device pattern, e.g. cross-coupled
/// current-mirror banks): devices a1/a2 form one diagonal and b1/b2 the
/// other; the two diagonals must share a centroid:
///   x_a1 + x_a2 == x_b1 + x_b2   and   y_a1 + y_a2 == y_b1 + y_b2.
struct CommonCentroidQuad {
  DeviceId a1, a2;  ///< first matched device, placed diagonally
  DeviceId b1, b2;  ///< second matched device, the other diagonal
};

struct ConstraintSet {
  std::vector<SymmetryGroup> symmetry_groups;
  std::vector<AlignmentPair> alignments;
  std::vector<OrderingConstraint> orderings;
  std::vector<CommonCentroidQuad> common_centroids;

  [[nodiscard]] bool empty() const {
    return symmetry_groups.empty() && alignments.empty() &&
           orderings.empty() && common_centroids.empty();
  }
};

}  // namespace aplace::netlist
