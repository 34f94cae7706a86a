#pragma once
// Arithmetic backends for the FPGA kernel models.
//
// The FPGA kernels in src/fpga are templated on a backend so they can run
// either with the host FPU (`NativeFp`, fast — the default for experiments)
// or with the bit-accurate software cores (`SoftFp`, slow — used by the test
// suite to pin down that the modelled hardware computes exactly what
// IEEE-754-compliant cores would).

#include "fparith/ieee754.hpp"

namespace rcs::fparith {

/// Host-FPU backend. On any IEEE-754 platform in the default rounding mode
/// this produces the same bits as SoftFp (verified by tests).
struct NativeFp {
  static double add(double a, double b) { return a + b; }
  static double sub(double a, double b) { return a - b; }
  static double mul(double a, double b) { return a * b; }
  static double min(double a, double b) { return a < b ? a : b; }
  static double mac(double acc, double a, double b) { return acc + a * b; }
  static double relax(double acc, double a, double b) {
    const double s = a + b;
    return s < acc ? s : acc;
  }
  static constexpr const char* name() { return "native"; }
  /// Host time per operation relative to NativeFp (for pool grains).
  static constexpr double kHostCost = 1.0;
};

/// Bit-accurate software-core backend (round-to-nearest-even, subnormals).
/// Note: `mac` is an unfused multiply-then-add, matching the paper's PEs,
/// which chain a multiplier core into an adder core (no FMA).
struct SoftFp {
  static double add(double a, double b) { return fparith::add(a, b); }
  static double sub(double a, double b) { return fparith::sub(a, b); }
  static double mul(double a, double b) { return fparith::mul(a, b); }
  static double min(double a, double b) { return fparith::min(a, b); }
  static double mac(double acc, double a, double b) {
    return fparith::add(acc, fparith::mul(a, b));
  }
  static double relax(double acc, double a, double b) {
    return fparith::relax(acc, a, b);
  }
  static constexpr const char* name() { return "soft-ieee754"; }
  /// The soft cores do field extraction, alignment and rounding in integer
  /// code: about two orders of magnitude above the native kernels.
  static constexpr double kHostCost = 100.0;
};

}  // namespace rcs::fparith
