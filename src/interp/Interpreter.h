//===- interp/Interpreter.h - Reference NIR interpreter ----------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference interpreter: executes NIR programs directly over a store,
/// defining the semantics every compilation path (host+PEAC on the CM/2
/// simulator, the fieldwise baseline) is differentially tested against.
/// It also counts elemental floating-point operations, which is the
/// numerator of every sustained-GFLOPS figure in the benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_INTERP_INTERPRETER_H
#define F90Y_INTERP_INTERPRETER_H

#include "interp/RtValue.h"
#include "nir/Imperative.h"
#include "nir/NIRContext.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace f90y {
namespace interp {

/// Storage for one array variable.
struct ArrayStorage {
  RtVal::Kind ElemKind = RtVal::Kind::Real;
  std::string Domain; ///< Name of the domain the array is declared over.
  std::vector<nir::ShapeExtent> Extents;
  std::vector<RtVal> Data;

  int64_t size() const {
    int64_t N = 1;
    for (const nir::ShapeExtent &E : Extents)
      N *= E.size();
    return N;
  }

  /// Linear index of zero-based position \p Pos (last dimension fastest).
  size_t linearIndex(const std::vector<int64_t> &Pos) const {
    size_t Idx = 0;
    for (size_t D = 0; D < Extents.size(); ++D)
      Idx = Idx * static_cast<size_t>(Extents[D].size()) +
            static_cast<size_t>(Pos[D]);
    return Idx;
  }
};

/// Executes NIR programs. One instance may run several programs; the store
/// is reset per run.
class Interpreter {
public:
  explicit Interpreter(DiagnosticEngine &Diags) : Diags(Diags) {}

  /// Runs \p Program to completion. Returns false on a runtime error
  /// (reported to the diagnostic engine).
  bool run(const nir::ProgramImp *Program);

  /// Captured PRINT output (one line per PRINT, items space-separated).
  const std::string &output() const { return Output; }

  /// Elemental floating-point operations executed.
  uint64_t flopCount() const { return Flops; }

  /// Post-run store inspection (top-level variables stay allocated after
  /// the run so tests and the driver can read results).
  const ArrayStorage *getArray(const std::string &Name) const;
  std::optional<RtVal> getScalar(const std::string &Name) const;

  /// Pre-run initialization hook: values installed here override the
  /// zero-initialization of a matching array declaration (used to seed
  /// inputs).
  void presetArray(const std::string &Name, std::vector<double> Values) {
    PresetArrays[Name] = std::move(Values);
  }

private:
  DiagnosticEngine &Diags;
  std::string Output;
  uint64_t Flops = 0;
  bool Failed = false;

  nir::DomainEnv Domains;
  std::map<std::string, ArrayStorage> Arrays;
  std::map<std::string, RtVal> Scalars;
  /// Actual coordinates of enclosing DO loops, per domain name.
  std::map<std::string, std::vector<int64_t>> LoopCoords;

  std::map<std::string, std::vector<double>> PresetArrays;

  /// Pending writes while executing under a parallel DO (FORALL
  /// semantics: all evaluations complete before any store commits).
  struct PendingWrite {
    bool IsArray = false;
    std::string Name;
    size_t Index = 0;
    RtVal V;
  };
  std::vector<PendingWrite> *Deferred = nullptr;

  /// The iteration space of the MOVE clause currently being evaluated.
  struct StmtSpace {
    std::string Domain;         ///< Domain local_under coordinates refer to.
    std::vector<int64_t> Los;   ///< Actual coordinate of position 0.
    std::vector<int64_t> Counts;
  };

  void error(const std::string &Msg) {
    if (!Failed)
      Diags.error(SourceLocation(), Msg);
    Failed = true;
  }

  // Imperative execution.
  void execImp(const nir::Imp *I);
  void execMove(const nir::MoveImp *M);
  void execDo(const nir::DoImp *D);
  void execCallPrint(const nir::CallImp *C);
  void commit(const PendingWrite &W);

  // Value evaluation. \p Pos is the zero-based position within \p Space;
  // both are empty in scalar context.
  RtVal evalElem(const nir::Value *V, const std::vector<int64_t> &Pos,
                 const StmtSpace &Space);
  RtVal evalScalar(const nir::Value *V) {
    return evalElem(V, {}, StmtSpace{});
  }
  RtVal evalReduction(const nir::FcnCallValue *F);

  /// Per-dimension element counts of a field-valued expression, or empty
  /// for scalars.
  std::vector<int64_t> fieldCounts(const nir::Value *V);
  /// The statement space implied by a field-valued expression (domain of
  /// the first everywhere AVAR, if any).
  StmtSpace spaceOf(const nir::Value *V);

  RtVal readArray(const ArrayStorage &A, const std::vector<int64_t> &Pos);
  RtVal convertForStore(RtVal V, RtVal::Kind K);
};

} // namespace interp
} // namespace f90y

#endif // F90Y_INTERP_INTERPRETER_H
