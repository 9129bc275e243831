#pragma once
// Axis-aligned rectangle with the overlap / union / containment operations
// the legalizers and density models need.

#include <algorithm>
#include <ostream>

#include "base/check.hpp"
#include "geom/point.hpp"

namespace aplace::geom {

class Rect {
 public:
  constexpr Rect() = default;
  /// Construct from corner coordinates. Normalizes so lo <= hi.
  constexpr Rect(double xlo, double ylo, double xhi, double yhi)
      : xlo_(std::min(xlo, xhi)),
        ylo_(std::min(ylo, yhi)),
        xhi_(std::max(xlo, xhi)),
        yhi_(std::max(ylo, yhi)) {}

  /// Rectangle of size w x h centered at c.
  static constexpr Rect centered(const Point& c, double w, double h) {
    return Rect(c.x - w / 2, c.y - h / 2, c.x + w / 2, c.y + h / 2);
  }

  [[nodiscard]] constexpr double xlo() const { return xlo_; }
  [[nodiscard]] constexpr double ylo() const { return ylo_; }
  [[nodiscard]] constexpr double xhi() const { return xhi_; }
  [[nodiscard]] constexpr double yhi() const { return yhi_; }
  [[nodiscard]] constexpr double width() const { return xhi_ - xlo_; }
  [[nodiscard]] constexpr double height() const { return yhi_ - ylo_; }
  [[nodiscard]] constexpr double area() const { return width() * height(); }
  [[nodiscard]] constexpr Point center() const {
    return {(xlo_ + xhi_) / 2, (ylo_ + yhi_) / 2};
  }
  [[nodiscard]] constexpr bool empty() const {
    return width() <= 0.0 || height() <= 0.0;
  }

  [[nodiscard]] constexpr bool contains(const Point& p) const {
    return p.x >= xlo_ && p.x <= xhi_ && p.y >= ylo_ && p.y <= yhi_;
  }
  [[nodiscard]] constexpr bool contains(const Rect& r) const {
    return r.xlo_ >= xlo_ && r.xhi_ <= xhi_ && r.ylo_ >= ylo_ &&
           r.yhi_ <= yhi_;
  }

  /// Strict interior overlap (shared edges do not count).
  [[nodiscard]] constexpr bool overlaps(const Rect& r) const {
    return xlo_ < r.xhi_ && r.xlo_ < xhi_ && ylo_ < r.yhi_ && r.ylo_ < yhi_;
  }

  /// Width of the horizontal overlap interval; <= 0 means disjoint in x.
  [[nodiscard]] constexpr double overlap_dx(const Rect& r) const {
    return std::min(xhi_, r.xhi_) - std::max(xlo_, r.xlo_);
  }
  /// Height of the vertical overlap interval; <= 0 means disjoint in y.
  [[nodiscard]] constexpr double overlap_dy(const Rect& r) const {
    return std::min(yhi_, r.yhi_) - std::max(ylo_, r.ylo_);
  }
  /// Overlapping area (0 when disjoint).
  [[nodiscard]] constexpr double overlap_area(const Rect& r) const {
    const double dx = overlap_dx(r);
    const double dy = overlap_dy(r);
    return (dx > 0 && dy > 0) ? dx * dy : 0.0;
  }

  /// Smallest rectangle containing both.
  [[nodiscard]] constexpr Rect united(const Rect& r) const {
    if (empty()) return r;
    if (r.empty()) return *this;
    return Rect(std::min(xlo_, r.xlo_), std::min(ylo_, r.ylo_),
                std::max(xhi_, r.xhi_), std::max(yhi_, r.yhi_));
  }

  /// Translated copy.
  [[nodiscard]] constexpr Rect shifted(const Point& d) const {
    return Rect(xlo_ + d.x, ylo_ + d.y, xhi_ + d.x, yhi_ + d.y);
  }

  /// Grow (or shrink, if negative) by m on every side.
  [[nodiscard]] constexpr Rect inflated(double m) const {
    return Rect(xlo_ - m, ylo_ - m, xhi_ + m, yhi_ + m);
  }

  friend constexpr bool operator==(const Rect&, const Rect&) = default;

 private:
  double xlo_ = 0.0, ylo_ = 0.0, xhi_ = 0.0, yhi_ = 0.0;
};

inline std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << '[' << r.xlo() << ',' << r.ylo() << " .. " << r.xhi() << ','
            << r.yhi() << ']';
}

}  // namespace aplace::geom
