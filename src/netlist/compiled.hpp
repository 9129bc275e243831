#pragma once
// CompiledCircuit: the one flat, immutable SoA/CSR snapshot of a Circuit
// that every engine family consumes (paper Table III compares five engine
// families over the same netlists; each used to re-derive its own adjacency
// from the AoS Circuit).
//
// Built deterministically once per circuit — identical input produces
// identical arrays, bit for bit — and then shared read-only across engines
// and threads. The invariant downstream: engines never rebuild adjacency;
// they index these tables. See docs/DATA_MODEL.md.
//
// Lifetime: CompiledCircuit borrows the Circuit it was compiled from (the
// Circuit must outlive it). Engines hold their snapshot through a
// CompiledRef, which shares ownership: the flow/batch layer passes the
// snapshots it caches in core::CompileCache (keyed by Circuit::digest()),
// other callers may pass a Circuit and get a private compile.

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/aligned.hpp"
#include "base/check.hpp"
#include "geom/orientation.hpp"
#include "netlist/circuit.hpp"
#include "netlist/placement.hpp"

namespace aplace::netlist {

/// SoA mirror of Placement (x[], y[], orient[]) for kernels that want flat
/// coordinate arrays. Round-trips losslessly with Placement: the same
/// doubles and orientation flags, no transformation applied. Coordinate
/// storage is 32-byte aligned (base::AlignedVec) so 4-lane SIMD kernels can
/// use aligned loads.
struct PlacementState {
  base::AlignedVec x;
  base::AlignedVec y;
  std::vector<geom::Orientation> orient;

  PlacementState() = default;
  explicit PlacementState(std::size_t n) : x(n), y(n), orient(n) {}

  [[nodiscard]] std::size_t size() const { return x.size(); }

  [[nodiscard]] static PlacementState from_placement(const Placement& p);
  /// Copy this state into `p` (same circuit, same device count).
  void apply_to(Placement& p) const;
  /// Materialize a fresh Placement of `circuit` from this state.
  [[nodiscard]] Placement to_placement(const Circuit& circuit) const;
};

class CompiledCircuit {
 public:
  /// Compile a finalized circuit. Deterministic: registration order drives
  /// every table; no pointers, hashes or parallelism involved.
  explicit CompiledCircuit(const Circuit& circuit);

  [[nodiscard]] const Circuit& circuit() const { return *circuit_; }
  [[nodiscard]] std::size_t num_devices() const { return dev_width_.size(); }
  [[nodiscard]] std::size_t num_pins() const { return pin_offset_x_.size(); }
  [[nodiscard]] std::size_t num_nets() const { return net_weight_.size(); }

  // ---- flat device arrays (registration order) -----------------------------
  [[nodiscard]] std::span<const double> dev_width() const { return dev_width_; }
  [[nodiscard]] std::span<const double> dev_height() const {
    return dev_height_;
  }
  [[nodiscard]] std::span<const double> dev_area() const { return dev_area_; }
  /// width/2 and height/2, precomputed once so every engine uses the exact
  /// same half-extent bits.
  [[nodiscard]] std::span<const double> dev_half_width() const {
    return dev_half_width_;
  }
  [[nodiscard]] std::span<const double> dev_half_height() const {
    return dev_half_height_;
  }
  [[nodiscard]] std::span<const DeviceType> dev_type() const {
    return dev_type_;
  }
  /// Sum of device footprints, accumulated in registration order (the same
  /// order — and therefore the same bits — as Circuit::total_device_area()).
  [[nodiscard]] double total_device_area() const { return total_device_area_; }

  // ---- flat pin arrays (registration order) --------------------------------
  [[nodiscard]] std::span<const double> pin_offset_x() const {
    return pin_offset_x_;
  }
  [[nodiscard]] std::span<const double> pin_offset_y() const {
    return pin_offset_y_;
  }
  [[nodiscard]] std::span<const std::uint32_t> pin_device() const {
    return pin_device_;
  }
  [[nodiscard]] std::span<const std::uint32_t> pin_net() const {
    return pin_net_;
  }

  // ---- flat net arrays -----------------------------------------------------
  [[nodiscard]] std::span<const double> net_weight() const {
    return net_weight_;
  }
  [[nodiscard]] std::span<const std::uint8_t> net_critical() const {
    return net_critical_;
  }

  // ---- CSR adjacency -------------------------------------------------------
  /// Pins of net `n`, in Net::pins (declaration) order.
  [[nodiscard]] std::span<const std::uint32_t> net_pins(std::size_t n) const {
    return csr(net_pin_off_, net_pins_, n);
  }
  /// Pins of device `d`, in Device::pins (declaration) order.
  [[nodiscard]] std::span<const std::uint32_t> device_pins(
      std::size_t d) const {
    return csr(dev_pin_off_, dev_pins_, d);
  }
  /// Nets incident to device `d`, deduplicated, ascending net order (the
  /// same table Circuit::nets_of() exposes).
  [[nodiscard]] std::span<const std::uint32_t> device_nets(
      std::size_t d) const {
    return csr(dev_net_off_, dev_nets_, d);
  }
  /// Devices on net `n`, deduplicated, ascending device order.
  [[nodiscard]] std::span<const std::uint32_t> net_devices(
      std::size_t n) const {
    return csr(net_dev_off_, net_devs_, n);
  }

  // ---- wirelength table ----------------------------------------------------
  // Non-degenerate (>= 2-pin) nets in net order, each pin carrying its
  // device index and center-relative offset (pin.offset - extent/2). This
  // is the table the smooth-wirelength kernels gather/scatter over.
  [[nodiscard]] std::size_t num_wl_nets() const { return wl_weight_.size(); }
  [[nodiscard]] std::span<const double> wl_weight() const { return wl_weight_; }
  /// Original NetId index of wirelength net `i`.
  [[nodiscard]] std::span<const std::uint32_t> wl_net_id() const {
    return wl_net_id_;
  }
  [[nodiscard]] std::span<const std::uint32_t> wl_pin_device(
      std::size_t i) const {
    return csr(wl_off_, wl_dev_, i);
  }
  [[nodiscard]] std::span<const double> wl_pin_dx(std::size_t i) const {
    return csr(wl_off_, wl_dx_, i);
  }
  [[nodiscard]] std::span<const double> wl_pin_dy(std::size_t i) const {
    return csr(wl_off_, wl_dy_, i);
  }

  // ---- flattened constraint tables -----------------------------------------
  [[nodiscard]] std::size_t num_symmetry_groups() const {
    return sym_axis_.size();
  }
  [[nodiscard]] Axis sym_axis(std::size_t g) const { return sym_axis_[g]; }
  [[nodiscard]] std::span<const std::uint32_t> sym_pair_a(std::size_t g) const {
    return csr(sym_pair_off_, sym_pair_a_, g);
  }
  [[nodiscard]] std::span<const std::uint32_t> sym_pair_b(std::size_t g) const {
    return csr(sym_pair_off_, sym_pair_b_, g);
  }
  [[nodiscard]] std::span<const std::uint32_t> sym_self(std::size_t g) const {
    return csr(sym_self_off_, sym_self_, g);
  }

  [[nodiscard]] std::size_t num_alignments() const {
    return align_kind_.size();
  }
  [[nodiscard]] std::span<const AlignmentKind> align_kind() const {
    return align_kind_;
  }
  [[nodiscard]] std::span<const std::uint32_t> align_a() const {
    return align_a_;
  }
  [[nodiscard]] std::span<const std::uint32_t> align_b() const {
    return align_b_;
  }

  [[nodiscard]] std::size_t num_orderings() const {
    return order_direction_.size();
  }
  [[nodiscard]] OrderDirection order_direction(std::size_t k) const {
    return order_direction_[k];
  }
  [[nodiscard]] std::span<const std::uint32_t> order_devices(
      std::size_t k) const {
    return csr(order_dev_off_, order_devs_, k);
  }

  [[nodiscard]] std::size_t num_centroids() const { return cent_a1_.size(); }
  [[nodiscard]] std::span<const std::uint32_t> cent_a1() const {
    return cent_a1_;
  }
  [[nodiscard]] std::span<const std::uint32_t> cent_a2() const {
    return cent_a2_;
  }
  [[nodiscard]] std::span<const std::uint32_t> cent_b1() const {
    return cent_b1_;
  }
  [[nodiscard]] std::span<const std::uint32_t> cent_b2() const {
    return cent_b2_;
  }

 private:
  template <class Vec>
  [[nodiscard]] static std::span<const typename Vec::value_type> csr(
      const std::vector<std::size_t>& off, const Vec& data, std::size_t i) {
    return {data.data() + off[i], off[i + 1] - off[i]};
  }

  const Circuit* circuit_;

  // Double tables use 32-byte-aligned storage (base::AlignedVec); the
  // std::span accessors above are unchanged, so this is invisible to
  // consumers except that SIMD kernels may use aligned loads on the table
  // heads.
  base::AlignedVec dev_width_, dev_height_, dev_area_;
  base::AlignedVec dev_half_width_, dev_half_height_;
  std::vector<DeviceType> dev_type_;
  double total_device_area_ = 0;

  base::AlignedVec pin_offset_x_, pin_offset_y_;
  std::vector<std::uint32_t> pin_device_, pin_net_;

  base::AlignedVec net_weight_;
  std::vector<std::uint8_t> net_critical_;

  std::vector<std::size_t> net_pin_off_;
  std::vector<std::uint32_t> net_pins_;
  std::vector<std::size_t> dev_pin_off_;
  std::vector<std::uint32_t> dev_pins_;
  std::vector<std::size_t> dev_net_off_;
  std::vector<std::uint32_t> dev_nets_;
  std::vector<std::size_t> net_dev_off_;
  std::vector<std::uint32_t> net_devs_;

  std::vector<std::size_t> wl_off_;
  std::vector<std::uint32_t> wl_dev_;
  base::AlignedVec wl_dx_, wl_dy_;
  base::AlignedVec wl_weight_;
  std::vector<std::uint32_t> wl_net_id_;

  std::vector<Axis> sym_axis_;
  std::vector<std::size_t> sym_pair_off_, sym_self_off_;
  std::vector<std::uint32_t> sym_pair_a_, sym_pair_b_, sym_self_;
  std::vector<AlignmentKind> align_kind_;
  std::vector<std::uint32_t> align_a_, align_b_;
  std::vector<OrderDirection> order_direction_;
  std::vector<std::size_t> order_dev_off_;
  std::vector<std::uint32_t> order_devs_;
  std::vector<std::uint32_t> cent_a1_, cent_a2_, cent_b1_, cent_b2_;
};

/// The handle every engine keeps its snapshot through: shared ownership of
/// one CompiledCircuit. Both constructors are implicit so an engine's one
/// constructor accepts either a shared snapshot (shared, not copied) or a
/// Circuit (compiled privately here). Sub-engines take their parent's
/// handle, so one snapshot backs a whole placer; copies happen only at
/// construction, and hot loops dereference the same single pointer.
class CompiledRef {
 public:
  CompiledRef(std::shared_ptr<const CompiledCircuit> compiled)
      : compiled_(std::move(compiled)) {
    APLACE_CHECK(compiled_ != nullptr);
  }
  CompiledRef(const Circuit& circuit)
      : compiled_(std::make_shared<const CompiledCircuit>(circuit)) {}

  [[nodiscard]] const CompiledCircuit& operator*() const { return *compiled_; }
  [[nodiscard]] const CompiledCircuit* operator->() const {
    return compiled_.get();
  }
  [[nodiscard]] const CompiledCircuit* get() const { return compiled_.get(); }

 private:
  std::shared_ptr<const CompiledCircuit> compiled_;
};

}  // namespace aplace::netlist
