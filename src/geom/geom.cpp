// geom is header-only; this TU anchors the static library.
#include "geom/orientation.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace aplace::geom {
namespace {
[[maybe_unused]] const int kGeomAnchor = 0;
}  // namespace
}  // namespace aplace::geom
