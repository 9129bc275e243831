#pragma once
// SVG rendering of placements: devices (colored by type), pin markers, net
// connections (star to the net centroid), symmetry axes and the layout
// bounding box. The quickest way to eyeball what a placer did.

#include <string>

#include "netlist/placement.hpp"

namespace aplace::io {

struct SvgOptions {
  bool draw_nets = true;      ///< light net star-connections
  bool draw_pins = true;
  bool draw_symmetry = true;  ///< dashed symmetry-axis lines
  bool draw_labels = true;    ///< device names
};

/// Render the placement as a standalone SVG document.
[[nodiscard]] std::string to_svg(const netlist::Placement& placement,
                                 SvgOptions options = {});

/// Convenience: render and write to a file. Throws CheckError on IO failure.
void write_svg(const netlist::Placement& placement, const std::string& path,
               SvgOptions options = {});

}  // namespace aplace::io
