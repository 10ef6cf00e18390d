//===- host/HostIR.h - Front-end (host) intermediate code ---------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host side of a compiled program: what the FE/NIR compiler produces
/// for the SPARC front end (paper Section 5.2). DO- and MOVE-constructs
/// over serial shapes become explicit iteration; declarative constructs
/// become memory allocations; communication intrinsics become CM runtime
/// library calls; and for each computation block the host pushes PEAC
/// procedure arguments over the IFIFO to the processors.
///
/// The prototype's host model is a simple memory-to-memory one ("the
/// current front-end semantic implementation uses a simple memory-to-
/// memory load/store model"), so host statements reference NIR value trees
/// for their scalar expressions and evaluate them directly.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_HOST_HOSTIR_H
#define F90Y_HOST_HOSTIR_H

#include "nir/Imperative.h"
#include "peac/Peac.h"
#include "runtime/CmRuntime.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace f90y {
namespace host {

/// One argument pushed over the IFIFO to a PEAC routine.
struct PeacArgSpec {
  enum class Kind {
    FieldPtr, ///< Base pointer of a named field's subgrids.
    CoordPtr, ///< Pointer to the coordinate subgrid along a dimension.
    Scalar    ///< A scalar value, evaluated host-side at call time.
  };
  Kind K = Kind::FieldPtr;
  std::string Field;              ///< FieldPtr: array name.
  unsigned Dim = 0;               ///< CoordPtr: 1-based dimension.
  const nir::Value *Scalar = nullptr; ///< Scalar: host expression.
};

/// Base class of host statements.
class HostStmt {
public:
  enum class Kind {
    Seq,
    AllocScope,
    ScalarAssign,
    ElementMove,
    CallPeac,
    Shift,
    SectionCopy,
    Transpose,
    Reduce,
    ReduceDim,
    Spread,
    If,
    While,
    SerialDo,
    ParallelLoop,
    Print
  };

  Kind getKind() const { return K; }
  virtual ~HostStmt() = default;

protected:
  explicit HostStmt(Kind K) : K(K) {}

private:
  const Kind K;
};

class SeqStmt : public HostStmt {
public:
  explicit SeqStmt(std::vector<std::unique_ptr<HostStmt>> Stmts)
      : HostStmt(Kind::Seq), Stmts(std::move(Stmts)) {}
  const std::vector<std::unique_ptr<HostStmt>> &stmts() const {
    return Stmts;
  }
  static bool classof(const HostStmt *S) { return S->getKind() == Kind::Seq; }

private:
  std::vector<std::unique_ptr<HostStmt>> Stmts;
};

/// Declarative NIR becomes memory allocation: fields on the CM heap,
/// scalars in host memory; freed on scope exit.
class AllocScopeStmt : public HostStmt {
public:
  struct FieldAlloc {
    std::string Name;
    std::vector<int64_t> Extents;
    std::vector<int64_t> Los;
    runtime::ElemKind Kind = runtime::ElemKind::Real;
    /// Storage placement solved by the layout pass (DESIGN.md Section 12).
    /// Empty vectors mean the canonical layout (identity axes, zero
    /// offsets); when set, logical element x is stored at slot
    /// (x[d] + Offsets[d]) mod Extents[d] along each axis.
    std::vector<int64_t> AxisMap;
    std::vector<int64_t> Offsets;
  };
  struct ScalarAlloc {
    std::string Name;
    runtime::ElemKind Kind = runtime::ElemKind::Real;
  };

  AllocScopeStmt(std::vector<FieldAlloc> Fields,
                 std::vector<ScalarAlloc> Scalars,
                 std::unique_ptr<HostStmt> Body, bool KeepAlive = false)
      : HostStmt(Kind::AllocScope), Fields(std::move(Fields)),
        Scalars(std::move(Scalars)), Body(std::move(Body)),
        KeepAlive(KeepAlive) {}

  const std::vector<FieldAlloc> &fields() const { return Fields; }
  const std::vector<ScalarAlloc> &scalars() const { return Scalars; }
  const HostStmt *body() const { return Body.get(); }
  /// Top-level scopes stay allocated after the run for inspection;
  /// transformation temporaries inside loops are freed on scope exit.
  bool keepAlive() const { return KeepAlive; }

  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::AllocScope;
  }

private:
  std::vector<FieldAlloc> Fields;
  std::vector<ScalarAlloc> Scalars;
  std::unique_ptr<HostStmt> Body;
  bool KeepAlive;
};

class ScalarAssignStmt : public HostStmt {
public:
  ScalarAssignStmt(std::string Name, const nir::Value *Expr,
                   const nir::Value *Guard)
      : HostStmt(Kind::ScalarAssign), Name(std::move(Name)), Expr(Expr),
        Guard(Guard) {}
  const std::string &name() const { return Name; }
  const nir::Value *expr() const { return Expr; }
  const nir::Value *guard() const { return Guard; } ///< May be null.
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::ScalarAssign;
  }

private:
  std::string Name;
  const nir::Value *Expr;
  const nir::Value *Guard;
};

/// Single-element array store (serial-loop bodies): the indices, guard,
/// and source are host scalar expressions; the store goes through the
/// runtime's element access.
class ElementMoveStmt : public HostStmt {
public:
  ElementMoveStmt(std::string Array, std::vector<const nir::Value *> Indices,
                  const nir::Value *Expr, const nir::Value *Guard)
      : HostStmt(Kind::ElementMove), Array(std::move(Array)),
        Indices(std::move(Indices)), Expr(Expr), Guard(Guard) {}
  const std::string &array() const { return Array; }
  const std::vector<const nir::Value *> &indices() const { return Indices; }
  const nir::Value *expr() const { return Expr; }
  const nir::Value *guard() const { return Guard; }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::ElementMove;
  }

private:
  std::string Array;
  std::vector<const nir::Value *> Indices;
  const nir::Value *Expr;
  const nir::Value *Guard;
};

/// Dispatch of one PEAC computation block over a statement geometry.
class CallPeacStmt : public HostStmt {
public:
  CallPeacStmt(unsigned RoutineIndex, std::vector<PeacArgSpec> Args,
               std::vector<int64_t> Extents, std::vector<int64_t> Los)
      : HostStmt(Kind::CallPeac), RoutineIndex(RoutineIndex),
        Args(std::move(Args)), Extents(std::move(Extents)),
        Los(std::move(Los)) {}
  unsigned routineIndex() const { return RoutineIndex; }
  const std::vector<PeacArgSpec> &args() const { return Args; }
  const std::vector<int64_t> &extents() const { return Extents; }
  const std::vector<int64_t> &los() const { return Los; }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::CallPeac;
  }

private:
  unsigned RoutineIndex;
  std::vector<PeacArgSpec> Args;
  std::vector<int64_t> Extents;
  std::vector<int64_t> Los;
};

/// One shift exchange through the runtime: each clause moves the same
/// source field along the same axis with the same flavor (cshift wraps,
/// eoshift fills) into its own destination. One clause is a cshift or
/// eoshift call; more are one multi-shift exchange that pays the grid's
/// communication startup once and computes what the clauses do in order
/// (comm-schedule builds those, nir::matchExchange).
class ShiftStmt : public HostStmt {
public:
  struct Clause {
    std::string Dst;
    int64_t Shift;   ///< Physical slot distance the exchange moves.
    int64_t Logical; ///< Source-level shift; Shift unless realigned.
    /// Layout materialization moved the clause by a different physical
    /// distance than the source-level one.
    bool isRealigned() const { return Logical != Shift; }
  };
  ShiftStmt(std::string Src, unsigned Dim, bool EndOff,
            std::vector<Clause> Clauses)
      : HostStmt(Kind::Shift), Src(std::move(Src)), Dim(Dim), EndOff(EndOff),
        Clauses(std::move(Clauses)) {}
  const std::string &src() const { return Src; }
  unsigned dim() const { return Dim; }
  bool isEndOff() const { return EndOff; }
  const std::vector<Clause> &clauses() const { return Clauses; }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::Shift;
  }

private:
  std::string Src;
  unsigned Dim;
  bool EndOff;
  std::vector<Clause> Clauses;
};

/// Misaligned section-to-section copy through the runtime.
class SectionCopyStmt : public HostStmt {
public:
  SectionCopyStmt(std::string Dst,
                  std::vector<runtime::CmRuntime::SectionDim> DstSec,
                  std::string Src,
                  std::vector<runtime::CmRuntime::SectionDim> SrcSec)
      : HostStmt(Kind::SectionCopy), Dst(std::move(Dst)),
        DstSec(std::move(DstSec)), Src(std::move(Src)),
        SrcSec(std::move(SrcSec)) {}
  const std::string &dst() const { return Dst; }
  const std::string &src() const { return Src; }
  const std::vector<runtime::CmRuntime::SectionDim> &dstSec() const {
    return DstSec;
  }
  const std::vector<runtime::CmRuntime::SectionDim> &srcSec() const {
    return SrcSec;
  }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::SectionCopy;
  }

private:
  std::string Dst;
  std::vector<runtime::CmRuntime::SectionDim> DstSec;
  std::string Src;
  std::vector<runtime::CmRuntime::SectionDim> SrcSec;
};

class TransposeStmt : public HostStmt {
public:
  TransposeStmt(std::string Dst, std::string Src)
      : HostStmt(Kind::Transpose), Dst(std::move(Dst)), Src(std::move(Src)) {}
  const std::string &dst() const { return Dst; }
  const std::string &src() const { return Src; }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::Transpose;
  }

private:
  std::string Dst, Src;
};

/// The reduction intrinsics (nir::isReductionIntrinsic) and the runtime
/// fold each one runs: the back end and the host executor map names to
/// folds through it, and host listings print the names back.
struct ReduceOpName {
  const char *Name;
  runtime::ReduceOp Op;
};
inline constexpr ReduceOpName ReduceOpNames[] = {
    {"sum", runtime::ReduceOp::Sum},    {"product", runtime::ReduceOp::Product},
    {"maxval", runtime::ReduceOp::Max}, {"minval", runtime::ReduceOp::Min},
    {"count", runtime::ReduceOp::Count}, {"any", runtime::ReduceOp::Any},
    {"all", runtime::ReduceOp::All}};

/// The fold of reduction intrinsic \p Name.
inline runtime::ReduceOp reduceOpOf(const std::string &Name) {
  for (const ReduceOpName &R : ReduceOpNames)
    if (Name == R.Name)
      return R.Op;
  return runtime::ReduceOp::All;
}

/// The intrinsic name of \p Op.
inline const char *reduceOpName(runtime::ReduceOp Op) {
  for (const ReduceOpName &R : ReduceOpNames)
    if (Op == R.Op)
      return R.Name;
  return "?";
}

class ReduceStmt : public HostStmt {
public:
  ReduceStmt(std::string DstScalar, runtime::ReduceOp Op, std::string Src)
      : HostStmt(Kind::Reduce), DstScalar(std::move(DstScalar)), Op(Op),
        Src(std::move(Src)) {}
  const std::string &dstScalar() const { return DstScalar; }
  runtime::ReduceOp op() const { return Op; }
  const std::string &src() const { return Src; }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::Reduce;
  }

private:
  std::string DstScalar;
  runtime::ReduceOp Op;
  std::string Src;
};

/// Partial reduction along one dimension into a rank-reduced field.
class ReduceDimStmt : public HostStmt {
public:
  ReduceDimStmt(std::string Dst, runtime::ReduceOp Op, std::string Src,
                unsigned Dim)
      : HostStmt(Kind::ReduceDim), Dst(std::move(Dst)), Op(Op),
        Src(std::move(Src)), Dim(Dim) {}
  const std::string &dst() const { return Dst; }
  runtime::ReduceOp op() const { return Op; }
  const std::string &src() const { return Src; }
  unsigned dim() const { return Dim; }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::ReduceDim;
  }

private:
  std::string Dst;
  runtime::ReduceOp Op;
  std::string Src;
  unsigned Dim;
};

/// Broadcast along a new dimension (F90 SPREAD) through the runtime.
class SpreadStmt : public HostStmt {
public:
  SpreadStmt(std::string Dst, std::string Src, unsigned Dim)
      : HostStmt(Kind::Spread), Dst(std::move(Dst)), Src(std::move(Src)),
        Dim(Dim) {}
  const std::string &dst() const { return Dst; }
  const std::string &src() const { return Src; }
  unsigned dim() const { return Dim; }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::Spread;
  }

private:
  std::string Dst, Src;
  unsigned Dim;
};

class IfStmt : public HostStmt {
public:
  IfStmt(const nir::Value *Cond, std::unique_ptr<HostStmt> Then,
         std::unique_ptr<HostStmt> Else)
      : HostStmt(Kind::If), Cond(Cond), Then(std::move(Then)),
        Else(std::move(Else)) {}
  const nir::Value *cond() const { return Cond; }
  const HostStmt *thenStmt() const { return Then.get(); }
  const HostStmt *elseStmt() const { return Else.get(); } ///< May be null.
  static bool classof(const HostStmt *S) { return S->getKind() == Kind::If; }

private:
  const nir::Value *Cond;
  std::unique_ptr<HostStmt> Then, Else;
};

class WhileStmt : public HostStmt {
public:
  WhileStmt(const nir::Value *Cond, std::unique_ptr<HostStmt> Body)
      : HostStmt(Kind::While), Cond(Cond), Body(std::move(Body)) {}
  const nir::Value *cond() const { return Cond; }
  const HostStmt *body() const { return Body.get(); }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::While;
  }

private:
  const nir::Value *Cond;
  std::unique_ptr<HostStmt> Body;
};

/// Explicit host iteration over a serial shape; the body sees the current
/// coordinates through the named domain.
class SerialDoStmt : public HostStmt {
public:
  SerialDoStmt(std::string Domain, std::vector<int64_t> Los,
               std::vector<int64_t> His, std::unique_ptr<HostStmt> Body)
      : HostStmt(Kind::SerialDo), Domain(std::move(Domain)),
        Los(std::move(Los)), His(std::move(His)), Body(std::move(Body)) {}
  const std::string &domain() const { return Domain; }
  const std::vector<int64_t> &los() const { return Los; }
  const std::vector<int64_t> &his() const { return His; }
  const HostStmt *body() const { return Body.get(); }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::SerialDo;
  }

private:
  std::string Domain;
  std::vector<int64_t> Los, His;
  std::unique_ptr<HostStmt> Body;
};

/// Host-side iteration over a *parallel* shape (the general-FORALL
/// fallback): writes are deferred until all iterations complete. Executed
/// element-by-element through the router.
class ParallelLoopStmt : public HostStmt {
public:
  ParallelLoopStmt(std::string Domain, std::vector<int64_t> Los,
                   std::vector<int64_t> His, std::unique_ptr<HostStmt> Body)
      : HostStmt(Kind::ParallelLoop), Domain(std::move(Domain)),
        Los(std::move(Los)), His(std::move(His)), Body(std::move(Body)) {}
  const std::string &domain() const { return Domain; }
  const std::vector<int64_t> &los() const { return Los; }
  const std::vector<int64_t> &his() const { return His; }
  const HostStmt *body() const { return Body.get(); }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::ParallelLoop;
  }

private:
  std::string Domain;
  std::vector<int64_t> Los, His;
  std::unique_ptr<HostStmt> Body;
};

class PrintStmt : public HostStmt {
public:
  explicit PrintStmt(std::vector<const nir::Value *> Items)
      : HostStmt(Kind::Print), Items(std::move(Items)) {}
  const std::vector<const nir::Value *> &items() const { return Items; }
  static bool classof(const HostStmt *S) {
    return S->getKind() == Kind::Print;
  }

private:
  std::vector<const nir::Value *> Items;
};

/// A fully compiled program: host code plus the PEAC routines it
/// dispatches.
struct HostProgram {
  std::string Name;
  std::vector<peac::Routine> Routines;
  std::unique_ptr<HostStmt> Body;
};

} // namespace host
} // namespace f90y

#endif // F90Y_HOST_HOSTIR_H
