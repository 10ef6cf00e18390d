//===- driver/Config.h - the knobs f90yc and f90y-serve share -----*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One table of the compile and run knobs both front doors accept: a row
/// names a knob, its allowed values or kind, its help text, and the one
/// setter that stores it into a driver::Config. The f90yc flag
/// (-fault-seed=7) and the f90y-serve manifest key ("fault_seed":7) spell
/// one row: the key is the flag name with '_' for '-', and its JSON type
/// follows the row's kind. Config alone derives the machine, the
/// CompileOptions and the ExecutionOptions.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_DRIVER_CONFIG_H
#define F90Y_DRIVER_CONFIG_H

#include "driver/Driver.h"
#include "observe/Json.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace f90y {
namespace driver {

/// One setting of every shared knob. The defaults are f90yc's.
struct Config {
  Profile Prof = Profile::F90Y;
  bool Cm5 = false;     ///< Start from the CM/5 machine description.
  unsigned Pes = 0;     ///< Simulated PEs (0: the machine's own count).
  /// Host sweep threads (0: all hardware threads; at most
  /// support::ThreadPool::MaxThreads).
  unsigned Threads = 0;
  peac::EngineKind Engine = peac::EngineKind::Compiled;
  /// Schedule and overlap communication. Unset: the profile's, which is
  /// overlap for f90y and the paper's sync for cmf and naive.
  std::optional<bool> OverlapComm = std::nullopt;
  std::optional<bool> Fuse = std::nullopt;   ///< Unset: the profile's.
  std::optional<bool> Layout = std::nullopt; ///< Unset: the profile's.
  support::FaultSpec Faults = {};
  uint64_t FaultSeed = 0;
  uint64_t MaxSteps = 0; ///< Watchdog (0: unlimited).

  /// CM/2 or CM/5, then Pes when set, whatever order the knobs came in.
  cm2::CostModel machine() const;
  /// CompileOptions::forProfile on machine(), then the comm schedule,
  /// Fuse and Layout, each the profile's where unset.
  CompileOptions compileOptions() const;
  /// The run knobs; no observability sinks, no checkpointing.
  ExecutionOptions executionOptions() const;
};

/// What a knob's value is, which fixes how each surface spells it.
enum class KnobKind {
  Choice, ///< One of Knob::Values ("a|b|c"); a JSON string.
  Switch, ///< A bare flag (-cm5); a JSON boolean.
  Count,  ///< A positive 32-bit count; a JSON number.
  Number, ///< A non-negative 64-bit integer; a JSON number.
  Faults, ///< A support::FaultSpec ("kind:prob,..."); a JSON string.
};

/// A value already parsed by its row's kind.
struct KnobValue {
  /// Choice: the index into Values; Switch: 0 or 1; Count, Number: itself.
  uint64_t Num = 0;
  support::FaultSpec Faults;
};

struct Knob {
  const char *Name;   ///< The flag name without its '-'.
  KnobKind Kind;
  const char *Values; ///< Choice: "a|b|c"; otherwise the usage placeholder.
  const char *Help;
  void (*Set)(Config &C, const KnobValue &V);
  uint64_t Max = 0; ///< Count, Number: the largest value (0: the kind's).
};

/// Every row, in usage order.
std::span<const Knob> knobs();

/// Applies one f90yc argument (-name=value; a Switch takes no value);
/// false with Error for an unknown name or a bad value.
bool applyFlag(Config &C, std::string_view Arg, std::string &Error);

/// Applies one manifest member, named by the flag name with '_' for '-';
/// false with Error for an unknown key or a bad value.
bool applyKey(Config &C, std::string_view Key, const observe::json::Value &V,
              std::string &Error);

/// A heading and one line per row: "  -name=VALUES   help".
std::string knobUsage();

/// The strict number parser of every numeric knob, flag and manifest
/// key: all of \p Text must be decimal digits, and the value must lie in
/// [Min, Max]. On failure Error reads "'What' must be ..., got 'Text'".
bool parseNumber(std::string_view What, std::string_view Text, uint64_t Min,
                 uint64_t Max, uint64_t &Out, std::string &Error);
/// The manifest form: \p V must be a JSON number that spells such a value.
bool parseNumber(std::string_view What, const observe::json::Value &V,
                 uint64_t Min, uint64_t Max, uint64_t &Out,
                 std::string &Error);

} // namespace driver
} // namespace f90y

#endif // F90Y_DRIVER_CONFIG_H
