#include "io/svg.hpp"

#include <fstream>
#include <sstream>

#include "netlist/evaluator.hpp"

namespace aplace::io {
namespace {

constexpr double kScale = 40.0;  ///< pixels per micron
constexpr double kMargin = 1.0;  ///< microns of whitespace around the layout

const char* fill_for(netlist::DeviceType t) {
  switch (t) {
    case netlist::DeviceType::Nmos: return "#7eb5e8";
    case netlist::DeviceType::Pmos: return "#e8a97e";
    case netlist::DeviceType::Capacitor: return "#9fd89f";
    case netlist::DeviceType::Resistor: return "#d8c77e";
    case netlist::DeviceType::Inductor: return "#c39fd8";
    case netlist::DeviceType::Diode: return "#d89f9f";
    case netlist::DeviceType::Module: return "#c0c8d0";
  }
  return "#cccccc";
}

}  // namespace

std::string to_svg(const netlist::Placement& placement, SvgOptions opt) {
  const netlist::Circuit& c = placement.circuit();
  const geom::Rect bb = placement.bounding_box().inflated(kMargin);
  const double s = kScale;
  const double w = bb.width() * s;
  const double h = bb.height() * s;

  // SVG y grows downward; flip so the layout reads like a floorplan.
  auto X = [&](double x) { return (x - bb.xlo()) * s; };
  auto Y = [&](double y) { return h - (y - bb.ylo()) * s; };

  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w
     << "\" height=\"" << h << "\" viewBox=\"0 0 " << w << ' ' << h
     << "\">\n";
  os << "<rect x=\"0\" y=\"0\" width=\"" << w << "\" height=\"" << h
     << "\" fill=\"#fcfcf8\"/>\n";

  // Layout bounding box.
  const geom::Rect layout = placement.bounding_box();
  os << "<rect x=\"" << X(layout.xlo()) << "\" y=\"" << Y(layout.yhi())
     << "\" width=\"" << layout.width() * s << "\" height=\""
     << layout.height() * s
     << "\" fill=\"none\" stroke=\"#888\" stroke-width=\"1\" "
        "stroke-dasharray=\"6 3\"/>\n";

  // Devices.
  for (std::size_t i = 0; i < c.num_devices(); ++i) {
    const DeviceId id{i};
    const geom::Rect r = placement.device_rect(id);
    const netlist::Device& d = c.device(id);
    os << "<rect x=\"" << X(r.xlo()) << "\" y=\"" << Y(r.yhi())
       << "\" width=\"" << r.width() * s << "\" height=\"" << r.height() * s
       << "\" fill=\"" << fill_for(d.type)
       << "\" stroke=\"#334\" stroke-width=\"1\"/>\n";
    if (opt.draw_labels) {
      os << "<text x=\"" << X(r.center().x) << "\" y=\""
         << Y(r.center().y) + 3
         << "\" font-size=\"" << std::max(8.0, 0.28 * s)
         << "\" text-anchor=\"middle\" font-family=\"monospace\" "
            "fill=\"#223\">"
         << d.name << "</text>\n";
    }
  }

  // Nets: light star from centroid to each pin.
  if (opt.draw_nets) {
    for (std::size_t e = 0; e < c.num_nets(); ++e) {
      const netlist::Net& net = c.net(NetId{e});
      if (net.weight < 0.5) continue;  // skip supply rails for readability
      geom::Point centroid{0, 0};
      for (PinId p : net.pins) centroid += placement.pin_position(p);
      centroid *= 1.0 / static_cast<double>(net.pins.size());
      const char* color = net.critical ? "#cc3344" : "#8899bb";
      for (PinId p : net.pins) {
        const geom::Point q = placement.pin_position(p);
        os << "<line x1=\"" << X(centroid.x) << "\" y1=\"" << Y(centroid.y)
           << "\" x2=\"" << X(q.x) << "\" y2=\"" << Y(q.y) << "\" stroke=\""
           << color << "\" stroke-width=\"0.8\" stroke-opacity=\"0.55\"/>\n";
      }
    }
  }

  // Pins.
  if (opt.draw_pins) {
    for (std::size_t p = 0; p < c.num_pins(); ++p) {
      const geom::Point q = placement.pin_position(PinId{p});
      os << "<circle cx=\"" << X(q.x) << "\" cy=\"" << Y(q.y) << "\" r=\""
         << 0.08 * s << "\" fill=\"#223\"/>\n";
    }
  }

  // Symmetry axes (at the evaluator's best-fit axis position).
  if (opt.draw_symmetry && !c.constraints().symmetry_groups.empty()) {
    const netlist::Evaluator ev(c);
    for (const netlist::SymmetryGroup& g : c.constraints().symmetry_groups) {
      const double m = ev.best_axis(placement, g);
      if (g.axis == netlist::Axis::Vertical) {
        os << "<line x1=\"" << X(m) << "\" y1=\"0\" x2=\"" << X(m)
           << "\" y2=\"" << h
           << "\" stroke=\"#44aa66\" stroke-width=\"1\" "
              "stroke-dasharray=\"2 4\"/>\n";
      } else {
        os << "<line x1=\"0\" y1=\"" << Y(m) << "\" x2=\"" << w
           << "\" y2=\"" << Y(m)
           << "\" stroke=\"#44aa66\" stroke-width=\"1\" "
              "stroke-dasharray=\"2 4\"/>\n";
      }
    }
  }

  os << "</svg>\n";
  return os.str();
}

void write_svg(const netlist::Placement& placement, const std::string& path,
               SvgOptions options) {
  std::ofstream out(path);
  APLACE_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  out << to_svg(placement, options);
  APLACE_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

}  // namespace aplace::io
