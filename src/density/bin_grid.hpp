#pragma once
// Uniform bin grid over the placement region, shared by both density models.
//
// Matrix convention: rho(r, c) with r = y-bin row and c = x-bin column,
// matching the 2D transforms' (rows = y, cols = x) layout in numeric/fft.

#include "geom/rect.hpp"
#include "numeric/matrix.hpp"

namespace aplace::density {

class BinGrid {
 public:
  BinGrid(const geom::Rect& region, std::size_t nx, std::size_t ny);

  [[nodiscard]] const geom::Rect& region() const { return region_; }
  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  [[nodiscard]] double bin_w() const { return bin_w_; }
  [[nodiscard]] double bin_h() const { return bin_h_; }
  [[nodiscard]] double bin_area() const { return bin_w_ * bin_h_; }

  [[nodiscard]] double bin_center_x(std::size_t c) const {
    return region_.xlo() + (static_cast<double>(c) + 0.5) * bin_w_;
  }
  [[nodiscard]] double bin_center_y(std::size_t r) const {
    return region_.ylo() + (static_cast<double>(r) + 0.5) * bin_h_;
  }
  [[nodiscard]] geom::Rect bin_rect(std::size_t r, std::size_t c) const {
    const double x = region_.xlo() + static_cast<double>(c) * bin_w_;
    const double y = region_.ylo() + static_cast<double>(r) * bin_h_;
    return {x, y, x + bin_w_, y + bin_h_};
  }

  /// Inclusive x-bin range overlapped by [xlo, xhi] (clamped to the grid).
  [[nodiscard]] std::pair<std::size_t, std::size_t> x_range(double xlo,
                                                            double xhi) const;
  [[nodiscard]] std::pair<std::size_t, std::size_t> y_range(double ylo,
                                                            double yhi) const;

  /// Accumulate `amount` distributed over rect ∩ grid proportionally to
  /// overlap area into `into` (rows=ny, cols=nx). Area fully outside the
  /// region is dropped (callers keep devices inside via boundary penalties).
  void splat(const geom::Rect& rect, double amount,
             numeric::Matrix& into) const;

 private:
  geom::Rect region_;
  std::size_t nx_, ny_;
  double bin_w_, bin_h_;
};

}  // namespace aplace::density
