//===- peac/Kernels.h - strip kernels of the compiled PEAC engine -*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strip kernels of the pre-compiled PEAC execution engine
/// (peac/Engine.h). The engine runs each body instruction over a strip of
/// up to StripLanes consecutive subgrid elements of one PE before the next
/// instruction starts. Translation classifies every operand into an
/// addressing form once (OperandRef), and each body instruction becomes
/// one kernel call specialized on opcode x source arity: the kernel
/// resolves its operands to rows of Pitch lanes (a switch per operand per
/// strip, not per lane) and evaluates the strip in one stride-free loop.
///
/// Semantics are the reference interpreter's (peac/Executor.cpp), bit for
/// bit, for the routines and bindings the engine's legality check admits:
/// evalLane mirrors applyOp, missing sources read as 0, and IEEE-754
/// division holds on every lane. The check guarantees that a lane only
/// ever reads what the same lane wrote (registers and spill slots are
/// written before they are read, and written memory is addressed at
/// offset 0, stride 1), so a destination may alias a source only lane for
/// lane and every kernel writes in place.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_PEAC_KERNELS_H
#define F90Y_PEAC_KERNELS_H

#include "peac/Peac.h"

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace f90y {
namespace peac {
namespace engine {

/// The strip cap: lanes one kernel call sweeps at most. A register row of
/// 256 doubles is 2 KiB, so a routine's rows stay cache-resident.
constexpr unsigned StripLanes = 256;

/// A pre-resolved operand: the addressing form is classified at
/// translation time, so a kernel switches on a dense enum once per strip.
struct OperandRef {
  enum class Form : uint8_t {
    Reg,   ///< Row Index of the per-thread register scratch: vector
           ///< registers first, then spill slots (offset and stride do
           ///< not apply to a spill slot, as in the interpreter).
    Const, ///< Row Index of the per-dispatch broadcast rows: scalar
           ///< arguments first, then the routine's distinct immediates.
    Mem    ///< Real subgrid memory: Bases[Index] + Offset + elem*Stride.
  };

  Form F = Form::Reg;
  uint32_t Index = 0;
  int64_t Offset = 0; ///< Mem only.
  int64_t Stride = 1; ///< Mem only.
};

/// Everything a kernel needs about the current (PE, strip) pair. Rows are
/// Pitch lanes apart; a strip covers Lanes <= Pitch of them.
struct Strip {
  double *Regs = nullptr;         ///< Register rows, then one gather row
                                  ///< per source slot (GatherRow on).
  const double *Consts = nullptr; ///< Broadcast rows.
  double *const *Bases = nullptr; ///< This PE's subgrid base per pointer.
  size_t Pitch = 0;
  size_t GatherRow = 0;
  int64_t First = 0;   ///< Subgrid element of lane 0.
  unsigned Lanes = 0;  ///< Subgrid elements in this strip.
};

/// The all-zero row absent sources read.
inline const double *zeroRow() {
  static constexpr double Zeros[StripLanes] = {};
  return Zeros;
}

/// Resolves source slot \p Slot to a row of the strip's lanes. Register
/// and broadcast rows and unit-stride memory resolve to existing storage;
/// only a strided memory read gathers, into the slot's gather row.
inline const double *source(const OperandRef &O, const Strip &S,
                            unsigned Slot) {
  switch (O.F) {
  case OperandRef::Form::Reg:
    return S.Regs + O.Index * S.Pitch;
  case OperandRef::Form::Const:
    return S.Consts + O.Index * S.Pitch;
  case OperandRef::Form::Mem:
    break;
  }
  // Same address arithmetic as PEState::memAddr: base + offset +
  // element * stride.
  const double *P = S.Bases[O.Index] + O.Offset + S.First * O.Stride;
  if (O.Stride == 1)
    return P;
  double *G = S.Regs + (S.GatherRow + Slot) * S.Pitch;
  for (unsigned Lane = 0; Lane < S.Lanes; ++Lane)
    G[Lane] = P[static_cast<int64_t>(Lane) * O.Stride];
  return G;
}

/// The row a destination is written through. Translation admits memory
/// destinations at offset 0, stride 1 only.
inline double *destination(const OperandRef &D, const Strip &S) {
  if (D.F == OperandRef::Form::Reg)
    return S.Regs + D.Index * S.Pitch;
  return S.Bases[D.Index] + S.First;
}

/// One lane of \p Op. Must mirror the interpreter's applyOp exactly,
/// including the non-total min/max orderings and IEEE division.
template <Opcode Op>
inline double evalLane(double A, double B, double C) {
  if constexpr (Op == Opcode::FLodV || Op == Opcode::FMovV ||
                Op == Opcode::FStrV)
    return A;
  else if constexpr (Op == Opcode::FAddV)
    return A + B;
  else if constexpr (Op == Opcode::FSubV)
    return A - B;
  else if constexpr (Op == Opcode::FMulV)
    return A * B;
  else if constexpr (Op == Opcode::FDivV)
    return A / B;
  else if constexpr (Op == Opcode::FMinV)
    return A < B ? A : B;
  else if constexpr (Op == Opcode::FMaxV)
    return A > B ? A : B;
  else if constexpr (Op == Opcode::FModV)
    return std::fmod(A, B);
  else if constexpr (Op == Opcode::FPowV)
    return std::pow(A, B);
  else if constexpr (Op == Opcode::FMAddV)
    return A * B + C;
  else if constexpr (Op == Opcode::FNegV)
    return -A;
  else if constexpr (Op == Opcode::FAbsV)
    return std::fabs(A);
  else if constexpr (Op == Opcode::FSqrtV)
    return std::sqrt(A);
  else if constexpr (Op == Opcode::FSinV)
    return std::sin(A);
  else if constexpr (Op == Opcode::FCosV)
    return std::cos(A);
  else if constexpr (Op == Opcode::FTanV)
    return std::tan(A);
  else if constexpr (Op == Opcode::FExpV)
    return std::exp(A);
  else if constexpr (Op == Opcode::FLogV)
    return std::log(A);
  else if constexpr (Op == Opcode::FTrncV)
    return std::trunc(A);
  else if constexpr (Op == Opcode::FNotV)
    return A != 0 ? 0.0 : 1.0;
  else if constexpr (Op == Opcode::FCmpEqV)
    return A == B ? 1.0 : 0.0;
  else if constexpr (Op == Opcode::FCmpNeV)
    return A != B ? 1.0 : 0.0;
  else if constexpr (Op == Opcode::FCmpLtV)
    return A < B ? 1.0 : 0.0;
  else if constexpr (Op == Opcode::FCmpLeV)
    return A <= B ? 1.0 : 0.0;
  else if constexpr (Op == Opcode::FCmpGtV)
    return A > B ? 1.0 : 0.0;
  else if constexpr (Op == Opcode::FCmpGeV)
    return A >= B ? 1.0 : 0.0;
  else if constexpr (Op == Opcode::FAndV)
    return (A != 0 && B != 0) ? 1.0 : 0.0;
  else if constexpr (Op == Opcode::FOrV)
    return (A != 0 || B != 0) ? 1.0 : 0.0;
  else if constexpr (Op == Opcode::FSelV)
    return A != 0 ? B : C;
  else
    return 0;
}

struct CompiledOp;
using KernelFn = void (*)(const CompiledOp &, const Strip &);

/// One translated body instruction: the kernel pointer plus pre-resolved
/// operands. Laid out flat so a routine's program is one contiguous walk.
struct CompiledOp {
  KernelFn Kernel = nullptr;
  OperandRef Srcs[3];
  OperandRef Dst;
};

/// The opcode x arity kernel: resolve the NSrcs present sources (absent
/// ones read the zero row, as in the interpreter) and evaluate every lane
/// of the strip in place.
template <Opcode Op, unsigned NSrcs>
void kernel(const CompiledOp &I, const Strip &S) {
  const double *A = NSrcs > 0 ? source(I.Srcs[0], S, 0) : zeroRow();
  const double *B = NSrcs > 1 ? source(I.Srcs[1], S, 1) : zeroRow();
  const double *C = NSrcs > 2 ? source(I.Srcs[2], S, 2) : zeroRow();
  double *Out = destination(I.Dst, S);
  for (unsigned Lane = 0; Lane < S.Lanes; ++Lane)
    Out[Lane] = evalLane<Op>(A[Lane], B[Lane], C[Lane]);
}

template <Opcode Op>
KernelFn kernelForArity(unsigned NSrcs) {
  static constexpr KernelFn Table[4] = {&kernel<Op, 0>, &kernel<Op, 1>,
                                        &kernel<Op, 2>, &kernel<Op, 3>};
  // The interpreter reads at most three sources; extras are ignored.
  return Table[NSrcs > 3 ? 3 : NSrcs];
}

/// The kernel for one instruction, by opcode and actual source count.
inline KernelFn lookupKernel(Opcode Op, unsigned NSrcs) {
  switch (Op) {
#define F90Y_PEAC_KERNEL_CASE(OP)                                            \
  case Opcode::OP:                                                           \
    return kernelForArity<Opcode::OP>(NSrcs);
    F90Y_PEAC_KERNEL_CASE(FLodV)
    F90Y_PEAC_KERNEL_CASE(FStrV)
    F90Y_PEAC_KERNEL_CASE(FMovV)
    F90Y_PEAC_KERNEL_CASE(FAddV)
    F90Y_PEAC_KERNEL_CASE(FSubV)
    F90Y_PEAC_KERNEL_CASE(FMulV)
    F90Y_PEAC_KERNEL_CASE(FDivV)
    F90Y_PEAC_KERNEL_CASE(FMinV)
    F90Y_PEAC_KERNEL_CASE(FMaxV)
    F90Y_PEAC_KERNEL_CASE(FModV)
    F90Y_PEAC_KERNEL_CASE(FPowV)
    F90Y_PEAC_KERNEL_CASE(FMAddV)
    F90Y_PEAC_KERNEL_CASE(FNegV)
    F90Y_PEAC_KERNEL_CASE(FAbsV)
    F90Y_PEAC_KERNEL_CASE(FSqrtV)
    F90Y_PEAC_KERNEL_CASE(FSinV)
    F90Y_PEAC_KERNEL_CASE(FCosV)
    F90Y_PEAC_KERNEL_CASE(FTanV)
    F90Y_PEAC_KERNEL_CASE(FExpV)
    F90Y_PEAC_KERNEL_CASE(FLogV)
    F90Y_PEAC_KERNEL_CASE(FTrncV)
    F90Y_PEAC_KERNEL_CASE(FNotV)
    F90Y_PEAC_KERNEL_CASE(FCmpEqV)
    F90Y_PEAC_KERNEL_CASE(FCmpNeV)
    F90Y_PEAC_KERNEL_CASE(FCmpLtV)
    F90Y_PEAC_KERNEL_CASE(FCmpLeV)
    F90Y_PEAC_KERNEL_CASE(FCmpGtV)
    F90Y_PEAC_KERNEL_CASE(FCmpGeV)
    F90Y_PEAC_KERNEL_CASE(FAndV)
    F90Y_PEAC_KERNEL_CASE(FOrV)
    F90Y_PEAC_KERNEL_CASE(FSelV)
#undef F90Y_PEAC_KERNEL_CASE
  }
  return nullptr;
}

} // namespace engine
} // namespace peac
} // namespace f90y

#endif // F90Y_PEAC_KERNELS_H
