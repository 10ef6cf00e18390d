//===- tests/invariance/Invariance.h - the determinism contract -*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One statement of the determinism contract, shared by the tests. A leg
/// is a driver::Config spelled as f90yc flags, so a failing leg prints as
/// the command line that reproduces it. Every knob of driver::knobs() has
/// one row in axes(), which fixes what a change of that knob may change:
///
///  - Host (threads, exec): nothing. Output, raw field storage (padding
///    included), every CycleLedger and FaultCounters field, and the
///    normalized trace and metrics exports (less the peac.engine.* cache
///    counters) are bitwise equal. Two variants that are not knobs join
///    them: an untraced run, and a run killed halfway through its
///    statements and restored from a checkpoint.
///  - Model (profile, comm, fuse, layout, faults): output and field values
///    in logical order are bitwise equal; ledgers may differ.
///  - Machine (pes, cm5): reduction order follows the machine, so these
///    are checked against the NIR interpreter only.
///
/// Nothing here uses gtest: each comparison returns its first divergence
/// as a string, "" when the runs agree.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_TESTS_INVARIANCE_INVARIANCE_H
#define F90Y_TESTS_INVARIANCE_INVARIANCE_H

#include "driver/Config.h"
#include "driver/Driver.h"

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace f90y {
namespace invariance {

/// The comm value no f90yc flag spells: runtime overlap on a program
/// compiled without the comm-schedule pass. The embedder API reaches it
/// because ExecutionOptions::OverlapComm and TransformOptions::CommSchedule
/// are separate fields.
inline constexpr const char *UnscheduledOverlap = "-comm=overlap-unscheduled";

/// f90yc flags, applied in order with driver::applyFlag (a later flag
/// wins), plus UnscheduledOverlap.
struct Leg {
  std::vector<std::string> Flags;

  Leg operator+(const Leg &O) const;
  driver::Config config() const;
  driver::CompileOptions compileOptions() const;
  driver::ExecutionOptions executionOptions() const;
  /// The f90yc command line, e.g. "f90yc -pes=16 -comm=sync".
  std::string str() const;
};

enum class AxisClass { Host, Model, Machine, None };

/// How one knob joins the matrix.
struct Axis {
  const char *Knob;  ///< A driver::knobs() row name.
  AxisClass Class;
  const char *Legs;  ///< '|'-separated legs, each a space-separated flag list.
  const char *Why;   ///< None: why the knob is not an axis.
};

/// One row per knob of driver::knobs().
std::span<const Axis> axes();
/// Every combination of the Host axes' legs (threads x exec).
std::vector<Leg> hostLegs();
/// The empty leg, then each Model axis leg alone.
std::vector<Leg> modelLegs();
/// Each Machine axis leg alone.
std::vector<Leg> machineLegs();

/// One field after a run.
struct Field {
  std::vector<int64_t> Extents;
  std::vector<double> Raw;     ///< snapshotField: padding included.
  std::vector<double> Logical; ///< Row-major logical order.

  double at(const std::vector<int64_t> &Pos) const;
};

/// Everything one run produces that the contract covers.
struct Record {
  Leg On;
  bool Ok = false;
  std::string Diags;
  driver::RunReport Report;
  std::map<std::string, Field> Fields;   ///< The program's top-level fields.
  std::map<std::string, double> Scalars; ///< Its top-level scalars.
  /// Traced runs: every compile and run metric, as f90yc -metrics has it.
  std::map<std::string, double> Metrics;
  /// Traced runs: the normalized trace export, and the metrics text less
  /// the peac.engine.* routine-cache counters.
  std::string Trace, MetricsText;
  uint64_t CheckpointsWritten = 0;
  bool RestoreFailed = false;

  /// A metric's value (0 when absent or untraced).
  double metric(const std::string &Name) const;
};

/// Compiles \p Src for \p L; null with the diagnostics in \p Error.
std::unique_ptr<driver::Compilation> compile(const std::string &Src,
                                             const Leg &L,
                                             std::string &Error);

/// Compiles and runs \p Src under \p L. A traced run traces and meters the
/// compile too, as f90yc -trace= -metrics= does.
Record run(const std::string &Src, const Leg &L, bool Traced = false,
        const runtime::ckpt::Options &Checkpoint = {});

/// Output, then every ledger and fault-counter field, bitwise.
std::string diffReport(const driver::RunReport &A,
                       const driver::RunReport &B);
/// The Host contract: the report, every field's raw storage and, when
/// both runs are traced, the trace and metrics exports.
std::string diffHost(const Record &A, const Record &B);
/// The Model contract: output and the logical values of every field both
/// runs keep.
std::string diffModel(const Record &A, const Record &B);
/// The oracle: PRINT output exactly, and the named arrays and scalars
/// (every array both hold when \p Names is empty) within \p Tol of the NIR
/// interpreter running \p Src.
std::string diffOracle(const Record &R, const std::string &Src,
                       const std::vector<std::string> &Names = {},
                       double Tol = 1e-9);

/// The legs one check crosses.
struct Matrix {
  Leg Base;
  /// Each runs as Base + it, compared under the Model contract with the
  /// first.
  std::vector<Leg> Model = {Leg{}};
  /// Also cross every model leg with hostLegs(), each also killed halfway
  /// and restored, and with an untraced run, under the Host contract.
  bool Host = true;
  /// The oracle's tolerance on the first model leg (unset: no oracle).
  std::optional<double> Oracle;
  std::vector<std::string> Names; ///< What the oracle compares.
};

/// The matrix of a compile-time switch: \p On and \p Off under the sync
/// and the unscheduled-overlap comm models, fault-free and under
/// recoverable faults (seed 7), each leg compared with the first under the
/// Model contract and crossed with hostLegs() under the Host contract.
Matrix switchMatrix(const char *On, const char *Off);

struct Result {
  /// The first divergence, "" when none. Its first line names the check
  /// and the legs; the rest is the detail.
  std::string Divergence;
  /// Per model leg, the traced run of Base + it + hostLegs()[0] (+ it
  /// alone without Host).
  std::vector<Record> Runs;
  /// Kill/restore variants that ran: a run with no step boundary before
  /// its halfway point has none.
  unsigned Restored = 0;
};

Result check(const std::string &Src, const Matrix &M);

/// examples/programs/\p Name, the shipped sample programs.
std::string sampleProgram(const std::string &Name);

} // namespace invariance
} // namespace f90y

#endif // F90Y_TESTS_INVARIANCE_INVARIANCE_H
