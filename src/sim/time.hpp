#pragma once

namespace sigvp {

/// Simulated time in microseconds.
///
/// The paper reports milliseconds (Table 1, Fig. 9/10) and seconds (Fig. 11);
/// the event core uses microseconds so per-call overheads (IPC round trips,
/// kernel launch costs) stay well above representable resolution.
using SimTime = double;

constexpr SimTime us_from_ms(double ms) { return ms * 1e3; }
constexpr double ms_from_us(SimTime us) { return us / 1e3; }
constexpr double s_from_us(SimTime us) { return us / 1e6; }

/// Converts a cycle count at `clock_ghz` into simulated microseconds.
constexpr SimTime us_from_cycles(double cycles, double clock_ghz) {
  return cycles / (clock_ghz * 1e3);
}

}  // namespace sigvp
