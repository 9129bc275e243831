#pragma once
// 2-D point/vector type used throughout the placement engines.
//
// Coordinates are double microns. The detailed placer additionally works on
// an integer grid (legal/formulation.hpp, kGridPitch).

#include <cmath>
#include <compare>
#include <ostream>

namespace aplace::geom {

struct Point {
  double x = 0.0;
  double y = 0.0;

  constexpr Point() = default;
  constexpr Point(double px, double py) : x(px), y(py) {}

  constexpr Point& operator+=(const Point& o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  constexpr Point& operator-=(const Point& o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }
  constexpr Point& operator*=(double s) {
    x *= s;
    y *= s;
    return *this;
  }

  friend constexpr Point operator+(Point a, const Point& b) { return a += b; }
  friend constexpr Point operator-(Point a, const Point& b) { return a -= b; }
  friend constexpr Point operator*(Point a, double s) { return a *= s; }
  friend constexpr Point operator*(double s, Point a) { return a *= s; }
  friend constexpr bool operator==(const Point&, const Point&) = default;

  [[nodiscard]] double norm() const { return std::hypot(x, y); }
  [[nodiscard]] constexpr double norm2() const { return x * x + y * y; }
  [[nodiscard]] double manhattan(const Point& o) const {
    return std::abs(x - o.x) + std::abs(y - o.y);
  }
};

inline std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << '(' << p.x << ", " << p.y << ')';
}

}  // namespace aplace::geom
