//===- perfbench/harness/Oracle.h - NIR-interpreter references ----*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Oracle references for benchmark programs. Each reference is produced
/// once by the NIR interpreter (interp::Interpreter, the repository's
/// semantic oracle) and stored under refs/: the useful-flop count
/// that is the numerator of sim_gflops, the PRINT output, and a digest of
/// every top-level field: its marginal sums (for each dimension, the sum
/// of every slice across it: the row and the column sums of a matrix,
/// every element of a vector) and values at fixed positions.
/// Running the interpreter at full size takes tens of seconds, so timed
/// runs compare against the stored digests instead.
///
/// Compiled runs are checked against a reference with the tolerance the
/// repository's driver tests use (1e-6 per element, so a slice sum may be
/// off by 1e-6 times its element count). An error confined to one row or
/// column, such as a wrong boundary fill, shows in that slice's sum. Runs
/// that must be bit-identical to each other (thread counts, traced vs
/// untraced) are compared by runDigest instead.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "driver/Driver.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Per-element tolerance against the oracle (tests/driver_test.cpp).
constexpr double Tolerance = 1e-6;

struct FieldRef {
  std::string Name;
  std::vector<int64_t> Extents;
  /// Marginals[D][I]: the sum of the elements whose index along dimension
  /// D is I.
  std::vector<std::vector<double>> Marginals;
  /// (linear index, value), last dimension fastest.
  std::vector<std::pair<int64_t, double>> Samples;
};

struct ProgramRef {
  uint64_t Flops = 0;
  std::string Output;
  std::vector<FieldRef> Fields;
};

/// Runs the interpreter on \p Source's unoptimized NIR; nullopt with
/// \p Error on a compile or interpreter failure.
std::optional<ProgramRef> computeReference(const std::string &Source,
                                           std::string &Error);

/// The references in a directory, one JSON file per program (its name
/// with '/' spelled '_'), each read on first use so a workload holds only
/// the references it runs.
class RefStore {
public:
  explicit RefStore(std::string Dir) : Dir(std::move(Dir)) {}

  /// The reference of \p Name; null when its file is missing or malformed
  /// (the reason goes to stderr).
  const ProgramRef *find(const std::string &Name) const;
  /// Writes \p R as the reference of \p Name.
  bool save(const std::string &Name, const ProgramRef &R) const;

private:
  std::string pathOf(const std::string &Name) const;

  std::string Dir;
  mutable std::map<std::string, std::optional<ProgramRef>> Loaded;
};

/// Compares PRINT output token by token, numbers within Tolerance
/// (relative above magnitude 1). Empty on a match, else the difference.
std::string compareOutput(const std::string &Got, const std::string &Want);

/// Checks a finished run against \p Ref: output, and for every reference
/// field the run still holds, its marginal sums and sampled elements. Fields a
/// compilation fused away are skipped, but at least one field or a
/// non-empty output must be checked. Empty on a match.
std::string checkRun(f90y::driver::Execution &E,
                     const f90y::driver::RunReport &R, const ProgramRef &Ref);

/// Bitwise identity of a run: output, ledger, and the raw storage of every
/// reference field the run holds.
uint64_t runDigest(f90y::driver::Execution &E,
                   const f90y::driver::RunReport &R, const ProgramRef &Ref);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
