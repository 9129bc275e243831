#pragma once
// Process-wide observability kill switch.
//
// The observability layer (MetricsRegistry in metrics.hpp, scoped Spans in
// span.hpp) answers the paper's central runtime question — *where* does
// wall-clock go in each flow — but must never change what the flows
// compute. obs::set_enabled(false) — or the APLACE_OBS=0 environment
// variable read on first use — short-circuits every record call behind one
// relaxed atomic load.
//
// Instrumentation is observation-only by construction (it never feeds back
// into any solver), so results are bit-identical with the layer enabled or
// disabled; tests/obs_test.cpp and tests/determinism_test.cpp pin that
// contract on the full circuit registry.

#include <atomic>

namespace aplace::obs {

namespace detail {
/// The runtime switch. Initialized on first use from APLACE_OBS (unset or
/// non-"0" = enabled). Read with relaxed ordering on every record path —
/// telemetry needs no synchronization with the flag flip.
std::atomic<bool>& enabled_flag();
}  // namespace detail

/// Is telemetry being recorded right now?
[[nodiscard]] inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

/// Flip the runtime switch (tests and the bit-identity harness use this).
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

}  // namespace aplace::obs
