//===- backend/PECompiler.h - CM2/PE NIR compiler -----------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PE/NIR compiler (paper Section 5.2): compiles one blocked
/// computation MOVE — a sequence of optionally masked moves over like
/// shapes — into a single PEAC virtual-subgrid loop. "Because such a
/// virtual subgrid loop with purely local references can be represented
/// graphically as one basic block with a single back-edge, register
/// allocation can be optimized."
///
/// Pipeline:
///   1. operand discovery: everywhere AVARs become pointer arguments,
///      local_under coordinates become coordinate-subgrid pointers,
///      scalar reads become IFIFO scalar arguments;
///   2. virtual-register code emission with common-subexpression reuse and
///      load chaining (one in-memory operand per instruction);
///   3. chained multiply-add fusion;
///   4. Belady linear-scan allocation onto the 8 vector registers, with
///      spill/restore traffic at the published 18-cycle pair cost;
///   5. dual-issue packing of loads/stores into ALU slots (and of spill
///      traffic, when spill scheduling is enabled).
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_BACKEND_PECOMPILER_H
#define F90Y_BACKEND_PECOMPILER_H

#include "host/HostIR.h"
#include "nir/Imperative.h"
#include "nir/TypeInfer.h"
#include "peac/Peac.h"
#include "support/Diagnostics.h"

#include <optional>
#include <string>
#include <vector>

namespace f90y {
namespace backend {

/// Per-optimization toggles of the node compiler (ablation benchmarks
/// switch these individually; the CMF-style baseline differs only in the
/// phases that feed this compiler).
struct PEOptions {
  bool Chaining = true;
  bool DualIssue = true;
  bool MaddFusion = true;
  bool CSE = true;
  bool SpillScheduling = true;
  unsigned VectorRegs = 8;
};

/// Result of compiling one computation block.
struct PEResult {
  peac::Routine Routine;
  std::vector<host::PeacArgSpec> Args;
};

/// Compiles the computation MOVE \p M over statement domain \p StmtDomain
/// into a PEAC routine named P<Index>. Returns std::nullopt (with a
/// diagnostic) when M violates the CM/PE input restrictions.
std::optional<PEResult>
compileComputation(const nir::MoveImp *M, const nir::Symbol *StmtDomain,
                   const nir::ElemTypeInference &Types,
                   const PEOptions &Opts, unsigned Index,
                   DiagnosticEngine &Diags);

} // namespace backend
} // namespace f90y

#endif // F90Y_BACKEND_PECOMPILER_H
