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
/// Each kernel is compiled once per host vector unit: on x86-64 under
/// GCC, `target_clones` emits an AVX-512F, an AVX2 and a baseline clone
/// plus a resolver, and the loader binds every kernel to the widest unit
/// the CPU reports. Nothing selects a clone but the CPU's features.
///
/// Semantics are the reference interpreter's (peac/Executor.cpp), bit for
/// bit, for the routines and bindings the engine's legality check admits,
/// on every clone. Both executors evaluate a lane through one definition,
/// evalLane: missing sources read as 0, IEEE-754 division holds on every
/// lane, and an op the compiler may commute yields its first NaN operand,
/// quieted. Two pins keep every clone on that definition: the build turns
/// off floating-point contraction for all of src/ (an AVX-512F or FMA
/// clone would otherwise fuse FMAddV's multiply and add into one
/// rounding), and a kernel of a commuting op tests its strip's operands
/// for NaN once, so its vector loop only ever runs where operand order
/// cannot show.
///
/// The legality check guarantees that a lane only ever reads what the
/// same lane wrote (registers and spill slots are written before they are
/// read, and written memory is addressed at offset 0, stride 1), so a
/// destination may alias a source only lane for lane and every kernel
/// writes in place.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_PEAC_KERNELS_H
#define F90Y_PEAC_KERNELS_H

#include "peac/Peac.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

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
/// only a strided memory read gathers, into the slot's gather row. Always
/// inlined, as is destination: GCC calls them out of line from a kernel's
/// ISA clones otherwise, which a short strip pays for on every op.
[[gnu::always_inline]] inline const double *
source(const OperandRef &O, const Strip &S, unsigned Slot) {
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
[[gnu::always_inline]] inline double *destination(const OperandRef &D,
                                                  const Strip &S) {
  if (D.F == OperandRef::Form::Reg)
    return S.Regs + D.Index * S.Pitch;
  return S.Bases[D.Index] + S.First;
}

/// The arithmetic of one lane of \p Op, IEEE-754 throughout: division by
/// zero gives +/-Inf or NaN, and min and max keep their non-total
/// orderings. For a commuting op it is exact only without NaN operands
/// (see evalLane).
template <Opcode Op>
inline double arithLane(double A, double B, double C) {
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

/// The ops whose operands the host compiler may swap: x + y as y + x, and
/// the add of a * b + c as c + a * b. The hardware returns its first NaN
/// operand, so two NaN operands give different results in different
/// orders. Without a NaN operand the order cannot show: a NaN computed
/// from numbers is always the default NaN.
template <Opcode Op>
constexpr bool Commutes =
    Op == Opcode::FAddV || Op == Opcode::FMulV || Op == Opcode::FMAddV;

/// \p X with its quiet bit set, as the hardware passes a NaN operand on.
inline double quieted(double X) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(X) |
                               (uint64_t{1} << 51));
}

/// One lane of \p Op: the one definition both executors evaluate (the
/// interpreter's applyOp switches over it). A commuting op yields its
/// first NaN operand in program order, quieted; every other lane is
/// arithLane.
template <Opcode Op>
inline double evalLane(double A, double B, double C) {
  if constexpr (Commutes<Op>) {
    if (std::isnan(A))
      return quieted(A);
    if (std::isnan(B))
      return quieted(B);
    if (Op == Opcode::FMAddV && std::isnan(C))
      return quieted(C);
  }
  return arithLane<Op>(A, B, C);
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

/// Whether a commuting op's operand rows hold a NaN in the strip's lanes.
/// Absent sources read the zero row, which holds none.
template <Opcode Op>
bool nanOperand(const double *A, const double *B, const double *C,
                unsigned Lanes) {
  uint64_t Any = 0; // An integer OR, which the vectorizer reduces.
  for (unsigned Lane = 0; Lane < Lanes; ++Lane)
    Any |= std::isunordered(A[Lane], B[Lane]) |
           (Op == Opcode::FMAddV && std::isnan(C[Lane]));
  return Any != 0;
}

/// evalLane over a strip where a commuting op meets a NaN operand. Such
/// strips are rare, so the loop stays out of line and out of the kernel
/// clones' hot code.
template <Opcode Op>
[[gnu::cold, gnu::noinline]] void evalStrip(const double *A, const double *B,
                                            const double *C, double *Out,
                                            unsigned Lanes) {
  for (unsigned Lane = 0; Lane < Lanes; ++Lane)
    Out[Lane] = evalLane<Op>(A[Lane], B[Lane], C[Lane]);
}

/// The kernels' clone list: one clone per x86-64 vector unit under GCC,
/// picked by the CPU's features at load time; one plain kernel elsewhere.
/// ThreadSanitizer builds take the plain kernel: a clone's ifunc resolver
/// runs during relocation, before the TSan runtime is up, and crashes.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) &&         \
    !defined(__SANITIZE_THREAD__)
#define F90Y_STRIP_CLONES [[gnu::target_clones("avx512f", "avx2", "default")]]
#else
#define F90Y_STRIP_CLONES
#endif

/// The opcode x arity kernel: resolve the NSrcs present sources (absent
/// ones read the zero row, as in the interpreter) and evaluate every lane
/// of the strip in place. Lanes are arithLane unless a commuting op meets
/// a NaN operand in the strip; that strip runs evalLane's NaN rule.
template <Opcode Op, unsigned NSrcs>
F90Y_STRIP_CLONES void kernel(const CompiledOp &I, const Strip &S) {
  const double *A = NSrcs > 0 ? source(I.Srcs[0], S, 0) : zeroRow();
  const double *B = NSrcs > 1 ? source(I.Srcs[1], S, 1) : zeroRow();
  const double *C = NSrcs > 2 ? source(I.Srcs[2], S, 2) : zeroRow();
  double *Out = destination(I.Dst, S);
  if constexpr (Commutes<Op>) {
    if (nanOperand<Op>(A, B, C, S.Lanes))
      return evalStrip<Op>(A, B, C, Out, S.Lanes);
  }
  for (unsigned Lane = 0; Lane < S.Lanes; ++Lane)
    Out[Lane] = arithLane<Op>(A[Lane], B[Lane], C[Lane]);
}

#undef F90Y_STRIP_CLONES

template <Opcode Op>
KernelFn kernelForArity(unsigned NSrcs) {
  static constexpr KernelFn Table[4] = {&kernel<Op, 0>, &kernel<Op, 1>,
                                        &kernel<Op, 2>, &kernel<Op, 3>};
  // The interpreter reads at most three sources; extras are ignored.
  return Table[NSrcs > 3 ? 3 : NSrcs];
}

/// Calls \p F with std::integral_constant<Opcode, Op> for the runtime
/// opcode \p Op: the one opcode list the kernels and the interpreter's
/// lanes are instantiated over. A value outside the enum gives R{}.
template <typename R, typename Fn>
R forOpcode(Opcode Op, Fn &&F) {
  switch (Op) {
#define F90Y_PEAC_OPCODE_CASE(OP)                                            \
  case Opcode::OP:                                                           \
    return F(std::integral_constant<Opcode, Opcode::OP>{});
    F90Y_PEAC_OPCODE_CASE(FLodV)
    F90Y_PEAC_OPCODE_CASE(FStrV)
    F90Y_PEAC_OPCODE_CASE(FMovV)
    F90Y_PEAC_OPCODE_CASE(FAddV)
    F90Y_PEAC_OPCODE_CASE(FSubV)
    F90Y_PEAC_OPCODE_CASE(FMulV)
    F90Y_PEAC_OPCODE_CASE(FDivV)
    F90Y_PEAC_OPCODE_CASE(FMinV)
    F90Y_PEAC_OPCODE_CASE(FMaxV)
    F90Y_PEAC_OPCODE_CASE(FModV)
    F90Y_PEAC_OPCODE_CASE(FPowV)
    F90Y_PEAC_OPCODE_CASE(FMAddV)
    F90Y_PEAC_OPCODE_CASE(FNegV)
    F90Y_PEAC_OPCODE_CASE(FAbsV)
    F90Y_PEAC_OPCODE_CASE(FSqrtV)
    F90Y_PEAC_OPCODE_CASE(FSinV)
    F90Y_PEAC_OPCODE_CASE(FCosV)
    F90Y_PEAC_OPCODE_CASE(FTanV)
    F90Y_PEAC_OPCODE_CASE(FExpV)
    F90Y_PEAC_OPCODE_CASE(FLogV)
    F90Y_PEAC_OPCODE_CASE(FTrncV)
    F90Y_PEAC_OPCODE_CASE(FNotV)
    F90Y_PEAC_OPCODE_CASE(FCmpEqV)
    F90Y_PEAC_OPCODE_CASE(FCmpNeV)
    F90Y_PEAC_OPCODE_CASE(FCmpLtV)
    F90Y_PEAC_OPCODE_CASE(FCmpLeV)
    F90Y_PEAC_OPCODE_CASE(FCmpGtV)
    F90Y_PEAC_OPCODE_CASE(FCmpGeV)
    F90Y_PEAC_OPCODE_CASE(FAndV)
    F90Y_PEAC_OPCODE_CASE(FOrV)
    F90Y_PEAC_OPCODE_CASE(FSelV)
#undef F90Y_PEAC_OPCODE_CASE
  }
  return R{};
}

/// The kernel for one instruction, by opcode and actual source count.
inline KernelFn lookupKernel(Opcode Op, unsigned NSrcs) {
  return forOpcode<KernelFn>(Op, [NSrcs](auto K) {
    return kernelForArity<decltype(K)::value>(NSrcs);
  });
}

} // namespace engine
} // namespace peac
} // namespace f90y

#endif // F90Y_PEAC_KERNELS_H
