// Geometry primitives: points, rectangles, orientation transforms.

#include <gtest/gtest.h>

#include "geom/orientation.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace aplace::geom {
namespace {

TEST(PointTest, Arithmetic) {
  const Point a{1, 2}, b{3, -4};
  EXPECT_EQ(a + b, Point(4, -2));
  EXPECT_EQ(a - b, Point(-2, 6));
  EXPECT_EQ(a * 2.0, Point(2, 4));
  EXPECT_EQ(2.0 * a, Point(2, 4));
  EXPECT_DOUBLE_EQ(a.norm2(), 5.0);
  EXPECT_DOUBLE_EQ(b.manhattan(a), 2 + 6);
}

TEST(RectTest, NormalizesCorners) {
  const Rect r(5, 7, 1, 3);
  EXPECT_DOUBLE_EQ(r.xlo(), 1);
  EXPECT_DOUBLE_EQ(r.ylo(), 3);
  EXPECT_DOUBLE_EQ(r.xhi(), 5);
  EXPECT_DOUBLE_EQ(r.yhi(), 7);
  EXPECT_DOUBLE_EQ(r.width(), 4);
  EXPECT_DOUBLE_EQ(r.height(), 4);
  EXPECT_DOUBLE_EQ(r.area(), 16);
}

TEST(RectTest, CenteredConstruction) {
  const Rect r = Rect::centered({2, 3}, 4, 6);
  EXPECT_EQ(r, Rect(0, 0, 4, 6));
  EXPECT_EQ(r.center(), Point(2, 3));
}

TEST(RectTest, OverlapSemantics) {
  const Rect a(0, 0, 4, 4);
  const Rect b(2, 2, 6, 6);
  const Rect c(4, 0, 8, 4);  // abuts a
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c)) << "shared edges do not overlap";
  EXPECT_DOUBLE_EQ(a.overlap_area(b), 4.0);
  EXPECT_DOUBLE_EQ(a.overlap_area(c), 0.0);
  EXPECT_DOUBLE_EQ(a.overlap_dx(b), 2.0);
  EXPECT_DOUBLE_EQ(a.overlap_dx(c), 0.0);
  EXPECT_LT(Rect(0, 0, 1, 1).overlap_dx(Rect(3, 0, 4, 1)), 0.0)
      << "negative overlap_dx encodes the gap";
}

TEST(RectTest, IntersectionAndUnion) {
  const Rect a(0, 0, 4, 4), b(2, 1, 6, 3);
  EXPECT_EQ(a.united(b), Rect(0, 0, 6, 4));
}

TEST(RectTest, ContainsAndExpand) {
  const Rect r(0, 0, 4, 4);
  EXPECT_TRUE(r.contains(Point{2, 2}));
  EXPECT_TRUE(r.contains(Point{0, 0})) << "boundary inclusive";
  EXPECT_FALSE(r.contains(Point{5, 2}));
  EXPECT_TRUE(r.contains(Rect(1, 1, 3, 3)));
  EXPECT_FALSE(r.contains(Rect(1, 1, 5, 3)));
}

TEST(RectTest, ShiftAndInflate) {
  const Rect r(0, 0, 2, 2);
  EXPECT_EQ(r.shifted({1, -1}), Rect(1, -1, 3, 1));
  EXPECT_EQ(r.inflated(1), Rect(-1, -1, 3, 3));
  EXPECT_EQ(r.inflated(-0.5), Rect(0.5, 0.5, 1.5, 1.5));
}

TEST(OrientationTest, PinTransformation) {
  const Point pin{1, 2};  // on a 4x6 device
  EXPECT_EQ(apply_orientation(pin, 4, 6, {false, false}), Point(1, 2));
  EXPECT_EQ(apply_orientation(pin, 4, 6, {true, false}), Point(3, 2));
  EXPECT_EQ(apply_orientation(pin, 4, 6, {false, true}), Point(1, 4));
  EXPECT_EQ(apply_orientation(pin, 4, 6, {true, true}), Point(3, 4));
}

TEST(OrientationTest, DoubleFlipIsIdentity) {
  const Point pin{0.5, 1.25};
  Point once = apply_orientation(pin, 3, 2, {true, true});
  Point twice = apply_orientation(once, 3, 2, {true, true});
  EXPECT_EQ(twice, pin);
}

}  // namespace
}  // namespace aplace::geom
