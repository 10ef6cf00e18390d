//===- backend/PECompiler.cpp - CM2/PE NIR compiler --------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/PECompiler.h"

#include "nir/Clause.h"
#include "nir/Equality.h"
#include "nir/Rewrite.h"

#include <algorithm>

using namespace f90y;
using namespace f90y::backend;
using namespace f90y::peac;
namespace N = f90y::nir;

namespace {

/// A virtual instruction: like peac::Instruction but over unbounded SSA
/// virtual registers.
struct VOp {
  Opcode Op = Opcode::FMovV;
  std::vector<Operand> Srcs; ///< VReg fields hold virtual ids.
  unsigned Dst = 0;
  bool HasMemDst = false;
  Operand MemDst;
  bool IsSpill = false;
};

class PECompilerImpl {
public:
  PECompilerImpl(const N::MoveImp *M, const N::Symbol *StmtDomain,
                 const N::ElemTypeInference &Types, const PEOptions &Opts,
                 unsigned Index, DiagnosticEngine &Diags)
      : M(M), StmtDomain(StmtDomain), Types(Types), Opts(Opts), Index(Index),
        Diags(Diags) {}

  std::optional<PEResult> run();

private:
  const N::MoveImp *M;
  const N::Symbol *StmtDomain;
  const N::ElemTypeInference &Types;
  PEOptions Opts;
  unsigned Index;
  DiagnosticEngine &Diags;
  bool Failed = false;

  /// Structural value numbers: CSE, scalar-argument and leaf-use keys.
  N::ValueNumbering VN;

  // Arguments; each table holds 1 + the slot index (0: no slot yet).
  N::SymbolMap<unsigned> FieldPtrs;  ///< array -> aP slot.
  std::vector<unsigned> CoordPtrs;   ///< dim -> aP slot.
  std::vector<unsigned> ScalarArgs;  ///< value number -> aS slot.
  std::vector<host::PeacArgSpec> PtrArgSpecs, ScalarArgSpecs;

  // Leaf use counts by value number (for the chain-vs-load decision).
  std::vector<unsigned> LeafUses;

  // Virtual code.
  std::vector<VOp> VCode;
  unsigned NextVReg = 0;
  std::vector<int> Cache; ///< CSE: value number -> vreg (-1: none).
  std::vector<unsigned> Cached; ///< Value numbers with a Cache entry.

  /// \p Table[\p Key], grown with \p Fill as needed.
  template <typename T>
  static T &slot(std::vector<T> &Table, size_t Key, T Fill = T()) {
    if (Key >= Table.size())
      Table.resize(Key + 1, Fill);
    return Table[Key];
  }

  void error(const std::string &Msg) {
    if (!Failed)
      Diags.error(SourceLocation(), Msg);
    Failed = true;
  }

  //===------------------------------------------------------------------===//
  // Operand discovery
  //===------------------------------------------------------------------===//

  unsigned fieldPtr(const N::AVarValue *AV) {
    unsigned &Slot = FieldPtrs[AV->getSymbol()];
    if (!Slot) {
      host::PeacArgSpec Spec;
      Spec.K = host::PeacArgSpec::Kind::FieldPtr;
      Spec.Field = AV->getId();
      PtrArgSpecs.push_back(Spec);
      Slot = static_cast<unsigned>(PtrArgSpecs.size());
    }
    return Slot - 1;
  }

  unsigned coordPtr(unsigned Dim) {
    unsigned &Slot = slot(CoordPtrs, Dim);
    if (!Slot) {
      host::PeacArgSpec Spec;
      Spec.K = host::PeacArgSpec::Kind::CoordPtr;
      Spec.Dim = Dim;
      PtrArgSpecs.push_back(Spec);
      Slot = static_cast<unsigned>(PtrArgSpecs.size());
    }
    return Slot - 1;
  }

  unsigned scalarArg(const N::Value *V) {
    unsigned &Slot = slot(ScalarArgs, VN.number(V));
    if (!Slot) {
      host::PeacArgSpec Spec;
      Spec.K = host::PeacArgSpec::Kind::Scalar;
      Spec.Scalar = V;
      ScalarArgSpecs.push_back(Spec);
      Slot = static_cast<unsigned>(ScalarArgSpecs.size());
    }
    return Slot - 1;
  }

  /// Counts field-leaf uses (chaining decision) and registers argument
  /// slots in first-appearance order. The walk enters arithmetic and
  /// 'merge' only: a subscripted read is one host-evaluated scalar.
  void discover(const N::Value *V) {
    N::forEachValue(V, [&](const N::Value *X) {
      if (const auto *AV = dyn_cast<N::AVarValue>(X)) {
        if (isa<N::EverywhereAction>(AV->getAction())) {
          fieldPtr(AV);
          ++slot(LeafUses, VN.number(X));
        } else if (isa<N::SubscriptAction>(AV->getAction())) {
          scalarArg(X);
        } else {
          error("array section reached the PE compiler (run the section "
                "masking transformation first)");
        }
        return false;
      }
      if (const auto *LC = dyn_cast<N::LocalCoordValue>(X)) {
        if (LC->getSymbol() == StmtDomain) {
          coordPtr(LC->getDim());
          ++slot(LeafUses, VN.number(X));
        } else {
          scalarArg(X); // Coordinates of an enclosing serial loop.
        }
      } else if (isa<N::SVarValue>(X)) {
        scalarArg(X);
      } else if (isa<N::StrConstValue>(X)) {
        error("string constant in a computation block");
      } else if (const auto *F = dyn_cast<N::FcnCallValue>(X);
                 F && F->getCallee() != "merge") {
        error("primitive '" + F->getCallee() +
              "' reached the PE compiler (run communication extraction "
              "first)");
        return false;
      }
      return true;
    });
  }

  //===------------------------------------------------------------------===//
  // Virtual-code emission
  //===------------------------------------------------------------------===//

  Operand fresh() { return Operand::vreg(NextVReg++); }

  Operand emitOp(Opcode Op, std::vector<Operand> Srcs) {
    VOp I;
    I.Op = Op;
    I.Srcs = std::move(Srcs);
    Operand Dst = fresh();
    I.Dst = Dst.Reg;
    VCode.push_back(std::move(I));
    return Dst;
  }

  /// Materializes \p O into a virtual register if it is not one already.
  Operand toReg(Operand O) {
    if (O.K == Operand::Kind::VReg)
      return O;
    if (O.K == Operand::Kind::Mem)
      return emitOp(Opcode::FLodV, {O});
    return emitOp(Opcode::FMovV, {O});
  }

  /// Ensures at most one memory operand among \p Ops by materializing the
  /// later ones into registers.
  void limitMemOperands(std::vector<Operand> &Ops) {
    bool Seen = false;
    for (Operand &O : Ops) {
      if (!O.isMem())
        continue;
      if (!Seen) {
        Seen = true;
        continue;
      }
      O = toReg(O);
    }
  }

  /// Emits \p V; may return a deferred Mem/SReg/Imm operand when
  /// \p AllowMem permits (chaining).
  Operand emitValue(const N::Value *V, bool AllowMem);

  /// The cached register of value number \p Key, or -1.
  int cached(unsigned Key) const {
    return Key < Cache.size() ? Cache[Key] : -1;
  }

  void cache(unsigned Key, Operand R) {
    int &Reg = slot(Cache, Key, -1);
    if (Reg < 0)
      Cached.push_back(Key);
    Reg = static_cast<int>(R.Reg);
  }

  /// Loads the field or coordinate leaf \p Leaf from pointer slot \p Ptr.
  Operand emitLeafField(const N::Value *Leaf, unsigned Ptr, bool AllowMem) {
    unsigned Key = VN.number(Leaf);
    if (Opts.CSE && cached(Key) >= 0)
      return Operand::vreg(static_cast<unsigned>(Cache[Key]));
    bool ChainIt = Opts.Chaining && AllowMem && slot(LeafUses, Key) == 1;
    if (ChainIt)
      return Operand::mem(Ptr);
    Operand R = emitOp(Opcode::FLodV, {Operand::mem(Ptr)});
    if (Opts.CSE)
      cache(Key, R);
    return R;
  }

  Operand emitBinary(const N::BinaryValue *B, bool AllowMem);

  /// Drops the cached values that read \p Array.
  void invalidateCache(const N::Symbol *Array) {
    std::erase_if(Cached, [&](unsigned Key) {
      if (!VN.mentions(Key, Array))
        return false;
      Cache[Key] = -1;
      return true;
    });
  }

  void emitClause(const N::MoveClause &C);

  //===------------------------------------------------------------------===//
  // Post passes
  //===------------------------------------------------------------------===//

  void fuseMadds();
  std::vector<Instruction> allocateRegisters(unsigned &SpillSlots);
  void packDualIssue(std::vector<Instruction> &Code);
};

Operand PECompilerImpl::emitValue(const N::Value *V, bool AllowMem) {
  if (Failed)
    return Operand::imm(0);

  const bool CacheIt = Opts.CSE && (isa<N::BinaryValue>(V) ||
                                    isa<N::UnaryValue>(V) ||
                                    isa<N::FcnCallValue>(V));
  const unsigned Key = CacheIt ? VN.number(V) : 0;
  if (CacheIt && cached(Key) >= 0)
    return Operand::vreg(static_cast<unsigned>(Cache[Key]));

  Operand Result = Operand::imm(0);
  switch (V->getKind()) {
  case N::Value::Kind::ScalarConst: {
    const auto *C = cast<N::ScalarConstValue>(V);
    return Operand::imm(C->asDouble());
  }
  case N::Value::Kind::SVar:
  case N::Value::Kind::StrConst:
    return Operand::sreg(scalarArg(V));
  case N::Value::Kind::AVar: {
    const auto *AV = cast<N::AVarValue>(V);
    if (isa<N::EverywhereAction>(AV->getAction()))
      return emitLeafField(V, fieldPtr(AV), AllowMem);
    return Operand::sreg(scalarArg(V));
  }
  case N::Value::Kind::LocalCoord: {
    const auto *LC = cast<N::LocalCoordValue>(V);
    if (LC->getSymbol() == StmtDomain)
      return emitLeafField(V, coordPtr(LC->getDim()), AllowMem);
    return Operand::sreg(scalarArg(V));
  }
  case N::Value::Kind::Unary: {
    const auto *U = cast<N::UnaryValue>(V);
    if (U->getOp() == N::UnaryOp::IntToF)
      return emitValue(U->getOperand(), AllowMem); // Identity on doubles.
    Operand Src = emitValue(U->getOperand(), AllowMem);
    Opcode Op = Opcode::FMovV; // Fully-covered switch; placates GCC.
    switch (U->getOp()) {
    case N::UnaryOp::Neg:
      Op = Opcode::FNegV;
      break;
    case N::UnaryOp::Not:
      Op = Opcode::FNotV;
      break;
    case N::UnaryOp::Abs:
      Op = Opcode::FAbsV;
      break;
    case N::UnaryOp::Sqrt:
      Op = Opcode::FSqrtV;
      break;
    case N::UnaryOp::Sin:
      Op = Opcode::FSinV;
      break;
    case N::UnaryOp::Cos:
      Op = Opcode::FCosV;
      break;
    case N::UnaryOp::Tan:
      Op = Opcode::FTanV;
      break;
    case N::UnaryOp::Exp:
      Op = Opcode::FExpV;
      break;
    case N::UnaryOp::Log:
      Op = Opcode::FLogV;
      break;
    case N::UnaryOp::FToInt:
      Op = Opcode::FTrncV;
      break;
    case N::UnaryOp::IntToF:
      Op = Opcode::FMovV;
      break;
    }
    Result = emitOp(Op, {Src});
    break;
  }
  case N::Value::Kind::Binary:
    Result = emitBinary(cast<N::BinaryValue>(V), AllowMem);
    break;
  case N::Value::Kind::FcnCall: {
    const auto *F = cast<N::FcnCallValue>(V);
    if (F->getCallee() != "merge") {
      error("primitive '" + F->getCallee() + "' in a computation block");
      return Operand::imm(0);
    }
    // fselv m t f.
    Operand Mask = emitValue(F->getArgs()[2], true);
    Operand T = emitValue(F->getArgs()[0], !Mask.isMem());
    Operand Fv =
        emitValue(F->getArgs()[1], !Mask.isMem() && !T.isMem());
    std::vector<Operand> Ops = {Mask, T, Fv};
    limitMemOperands(Ops);
    Result = emitOp(Opcode::FSelV, Ops);
    break;
  }
  }

  if (CacheIt && Result.K == Operand::Kind::VReg)
    cache(Key, Result);
  return Result;
}

Operand PECompilerImpl::emitBinary(const N::BinaryValue *B, bool AllowMem) {
  using N::BinaryOp;
  BinaryOp NOp = B->getOp();

  // Integer-typed operands of arithmetic that needs post-truncation.
  bool IntDiv = NOp == BinaryOp::Div &&
                Types.elemKindOf(B->getLHS()) == N::Type::Kind::Integer32 &&
                Types.elemKindOf(B->getRHS()) == N::Type::Kind::Integer32;

  // Strength-reduce small constant integer powers into multiply chains.
  if (NOp == BinaryOp::Pow) {
    const auto *Exp = dyn_cast<N::ScalarConstValue>(B->getRHS());
    if (Exp && Exp->isInt() && Exp->getInt() >= 0 && Exp->getInt() <= 4) {
      int64_t Nexp = Exp->getInt();
      if (Nexp == 0)
        return Operand::imm(1.0);
      Operand X = toReg(emitValue(B->getLHS(), AllowMem));
      Operand Acc = X;
      for (int64_t I = 1; I < Nexp; ++I)
        Acc = emitOp(Opcode::FMulV, {Acc, X});
      return Acc;
    }
    Operand L = emitValue(B->getLHS(), AllowMem);
    Operand R = emitValue(B->getRHS(), !L.isMem());
    std::vector<Operand> Ops = {L, R};
    limitMemOperands(Ops);
    Operand P = emitOp(Opcode::FPowV, Ops);
    if (Types.elemKindOf(B) == N::Type::Kind::Integer32)
      P = emitOp(Opcode::FTrncV, {P});
    return P;
  }

  Opcode Op = Opcode::FAddV; // Fully-covered switch; placates GCC.
  switch (NOp) {
  case BinaryOp::Add:
    Op = Opcode::FAddV;
    break;
  case BinaryOp::Sub:
    Op = Opcode::FSubV;
    break;
  case BinaryOp::Mul:
    Op = Opcode::FMulV;
    break;
  case BinaryOp::Div:
    Op = Opcode::FDivV;
    break;
  case BinaryOp::Mod:
    Op = Opcode::FModV;
    break;
  case BinaryOp::Min:
    Op = Opcode::FMinV;
    break;
  case BinaryOp::Max:
    Op = Opcode::FMaxV;
    break;
  case BinaryOp::Eq:
    Op = Opcode::FCmpEqV;
    break;
  case BinaryOp::Ne:
    Op = Opcode::FCmpNeV;
    break;
  case BinaryOp::Lt:
    Op = Opcode::FCmpLtV;
    break;
  case BinaryOp::Le:
    Op = Opcode::FCmpLeV;
    break;
  case BinaryOp::Gt:
    Op = Opcode::FCmpGtV;
    break;
  case BinaryOp::Ge:
    Op = Opcode::FCmpGeV;
    break;
  case BinaryOp::And:
    Op = Opcode::FAndV;
    break;
  case BinaryOp::Or:
    Op = Opcode::FOrV;
    break;
  case BinaryOp::Pow:
    Op = Opcode::FPowV; // Handled above; unreachable.
    break;
  }

  Operand L = emitValue(B->getLHS(), AllowMem);
  Operand R = emitValue(B->getRHS(), !L.isMem());
  std::vector<Operand> Ops = {L, R};
  limitMemOperands(Ops);
  Operand Result = emitOp(Op, Ops);
  if (IntDiv)
    Result = emitOp(Opcode::FTrncV, {Result});
  return Result;
}

void PECompilerImpl::emitClause(const N::MoveClause &C) {
  const auto *DstAV = dyn_cast<N::AVarValue>(C.Dst);
  if (!DstAV || !isa<N::EverywhereAction>(DstAV->getAction())) {
    error("CM/PE accepts only everywhere-restricted destinations");
    return;
  }
  unsigned DstPtr = fieldPtr(DstAV);

  Operand Value = Operand::imm(0);
  if (N::isTrueGuard(C.Guard)) {
    Value = toReg(emitValue(C.Src, true));
  } else {
    // Masked move: compute the mask, the value, and the current
    // destination; select; store (Figure 10 pseudocode).
    Operand Mask = toReg(emitValue(C.Guard, true));
    Operand NewV = emitValue(C.Src, true);
    Operand OldV = emitValue(
        C.Dst, /*AllowMem=*/!NewV.isMem()); // Everywhere read of dst.
    std::vector<Operand> Ops = {Mask, NewV, OldV};
    limitMemOperands(Ops);
    Value = emitOp(Opcode::FSelV, Ops);
  }

  VOp Store;
  Store.Op = Opcode::FStrV;
  Store.Srcs = {Value};
  Store.HasMemDst = true;
  Store.MemDst = Operand::mem(DstPtr);
  VCode.push_back(Store);

  // The destination's in-memory value is now the stored register; later
  // clauses reading it can reuse the register (after invalidating stale
  // entries mentioning the array).
  invalidateCache(DstAV->getSymbol());
  if (Opts.CSE)
    cache(VN.number(C.Dst), Value);
}

void PECompilerImpl::fuseMadds() {
  if (!Opts.MaddFusion)
    return;
  // Use counts over virtual registers.
  std::vector<unsigned> Uses(NextVReg);
  for (const VOp &I : VCode)
    for (const Operand &S : I.Srcs)
      if (S.K == Operand::Kind::VReg)
        ++Uses[S.Reg];

  for (size_t I = 0; I < VCode.size(); ++I) {
    if (VCode[I].Op != Opcode::FMulV)
      continue;
    unsigned T = VCode[I].Dst;
    if (T >= Uses.size() || Uses[T] != 1)
      continue;
    // Find the unique consumer.
    for (size_t J = I + 1; J < VCode.size(); ++J) {
      bool UsesT = false;
      for (const Operand &S : VCode[J].Srcs)
        if (S.K == Operand::Kind::VReg && S.Reg == T)
          UsesT = true;
      if (!UsesT)
        continue;
      if (VCode[J].Op != Opcode::FAddV)
        break;
      // Build fmaddv(a, b, c).
      Operand A = VCode[I].Srcs[0], B = VCode[I].Srcs[1];
      // A chained memory read must not migrate past a store (a later
      // clause may have overwritten the array).
      if (A.isMem() || B.isMem()) {
        bool StoreBetween = false;
        for (size_t K = I + 1; K < J; ++K)
          if (VCode[K].HasMemDst)
            StoreBetween = true;
        if (StoreBetween)
          break;
      }
      Operand Cop = VCode[J].Srcs[0].K == Operand::Kind::VReg &&
                            VCode[J].Srcs[0].Reg == T
                        ? VCode[J].Srcs[1]
                        : VCode[J].Srcs[0];
      unsigned MemCount = A.isMem() + B.isMem() + Cop.isMem();
      if (MemCount > 1) {
        // Keep one chained operand; materialize the addend into a
        // register so the multiply-add can still fuse.
        if (!Cop.isMem())
          break; // Two mem operands inside the multiply itself.
        VOp Load;
        Load.Op = Opcode::FLodV;
        Load.Srcs = {Cop};
        Load.Dst = NextVReg++;
        Cop = Operand::vreg(Load.Dst);
        VCode.insert(VCode.begin() + static_cast<long>(J), Load);
        ++J;
      }
      VCode[J].Op = Opcode::FMAddV;
      VCode[J].Srcs = {A, B, Cop};
      VCode.erase(VCode.begin() + static_cast<long>(I));
      --I; // Re-examine the instruction that slid into position I.
      break;
    }
  }
}

std::vector<Instruction>
PECompilerImpl::allocateRegisters(unsigned &SpillSlots) {
  // Use positions per virtual register.
  std::vector<std::vector<size_t>> UsePos(NextVReg);
  for (size_t I = 0; I < VCode.size(); ++I)
    for (const Operand &S : VCode[I].Srcs)
      if (S.K == Operand::Kind::VReg)
        UsePos[S.Reg].push_back(I);

  const unsigned NumPhys = Opts.VectorRegs;
  const unsigned NumPtrs = static_cast<unsigned>(PtrArgSpecs.size());

  struct VState {
    int Phys = -1;
    int Slot = -1; ///< Spill slot, when spilled.
    size_t NextUseIdx = 0;
  };
  std::vector<VState> VRegs(NextVReg);
  std::vector<int> PhysHolder(NumPhys, -1); // phys -> vreg or -1.
  SpillSlots = 0;
  std::vector<Instruction> Out;

  auto nextUseAfter = [&](unsigned V, size_t Pos) -> size_t {
    for (size_t U : UsePos[V])
      if (U >= Pos)
        return U;
    return SIZE_MAX;
  };

  auto spillStore = [&](unsigned V) {
    VState &St = VRegs[V];
    if (St.Slot < 0) {
      St.Slot = static_cast<int>(SpillSlots++);
      Instruction Sp;
      Sp.Op = Opcode::FStrV;
      Sp.Srcs = {Operand::vreg(static_cast<unsigned>(St.Phys))};
      Sp.HasMemDst = true;
      Sp.MemDst = Operand::mem(NumPtrs + static_cast<unsigned>(St.Slot));
      Sp.IsSpill = true;
      Out.push_back(Sp);
    }
    PhysHolder[static_cast<size_t>(St.Phys)] = -1;
    St.Phys = -1;
  };

  auto allocPhys = [&](size_t Pos, const std::vector<unsigned> &Pinned)
      -> unsigned {
    for (unsigned P = 0; P < NumPhys; ++P)
      if (PhysHolder[P] < 0)
        return P;
    // Belady: evict the resident vreg with the farthest next use.
    int VictimPhys = -1;
    size_t Farthest = 0;
    for (unsigned P = 0; P < NumPhys; ++P) {
      unsigned V = static_cast<unsigned>(PhysHolder[P]);
      bool IsPinned = false;
      for (unsigned Pin : Pinned)
        if (Pin == V)
          IsPinned = true;
      if (IsPinned)
        continue;
      size_t NU = nextUseAfter(V, Pos);
      if (NU >= Farthest) {
        Farthest = NU;
        VictimPhys = static_cast<int>(P);
      }
    }
    assert(VictimPhys >= 0 && "register pressure exceeds the file with "
                              "every register pinned");
    unsigned Victim = static_cast<unsigned>(PhysHolder[VictimPhys]);
    if (nextUseAfter(Victim, Pos) != SIZE_MAX)
      spillStore(Victim);
    else {
      PhysHolder[static_cast<size_t>(VictimPhys)] = -1;
      VRegs[Victim].Phys = -1;
    }
    return static_cast<unsigned>(VictimPhys);
  };

  for (size_t I = 0; I < VCode.size(); ++I) {
    const VOp &VI = VCode[I];
    std::vector<unsigned> Pinned;

    // Bring spilled sources back.
    Instruction Phys;
    Phys.Op = VI.Op;
    Phys.HasMemDst = VI.HasMemDst;
    Phys.MemDst = VI.MemDst;
    Phys.IsSpill = VI.IsSpill;
    for (const Operand &S : VI.Srcs) {
      if (S.K != Operand::Kind::VReg) {
        Phys.Srcs.push_back(S);
        continue;
      }
      VState &St = VRegs[S.Reg];
      if (St.Phys < 0) {
        assert(St.Slot >= 0 && "use of a dead virtual register");
        unsigned P = allocPhys(I, Pinned);
        Instruction Re;
        Re.Op = Opcode::FLodV;
        Re.Srcs = {Operand::mem(NumPtrs + static_cast<unsigned>(St.Slot))};
        Re.DstVReg = P;
        Re.IsSpill = true;
        Out.push_back(Re);
        St.Phys = static_cast<int>(P);
        PhysHolder[P] = static_cast<int>(S.Reg);
      }
      Pinned.push_back(S.Reg);
      Phys.Srcs.push_back(Operand::vreg(static_cast<unsigned>(St.Phys)));
    }

    if (!VI.HasMemDst) {
      unsigned P = allocPhys(I, Pinned);
      VState &St = VRegs[VI.Dst];
      St.Phys = static_cast<int>(P);
      St.Slot = -1;
      PhysHolder[P] = static_cast<int>(VI.Dst);
      Phys.DstVReg = P;
    }
    Out.push_back(Phys);

    // Release registers whose values have no further uses.
    for (unsigned P = 0; P < NumPhys; ++P) {
      if (PhysHolder[P] < 0)
        continue;
      unsigned V = static_cast<unsigned>(PhysHolder[P]);
      if (nextUseAfter(V, I + 1) == SIZE_MAX && V != VI.Dst) {
        PhysHolder[P] = -1;
        VRegs[V].Phys = -1;
      }
    }
  }
  return Out;
}

void PECompilerImpl::packDualIssue(std::vector<Instruction> &Code) {
  if (!Opts.DualIssue)
    return;
  for (size_t I = 1; I < Code.size(); ++I) {
    Instruction &Cur = Code[I];
    Instruction &Prev = Code[I - 1];
    bool CurIsMemOp = Cur.Op == Opcode::FLodV || Cur.Op == Opcode::FStrV;
    if (!CurIsMemOp)
      continue;
    if (Cur.IsSpill && !Opts.SpillScheduling)
      continue;
    if (Prev.FusedWithPrev || Prev.touchesMemory())
      continue;
    if (Prev.Op == Opcode::FLodV || Prev.Op == Opcode::FStrV)
      continue;
    // A load must not clobber the slot leader's destination.
    if (Cur.Op == Opcode::FLodV && !Prev.HasMemDst &&
        Cur.DstVReg == Prev.DstVReg)
      continue;
    Cur.FusedWithPrev = true;
  }
}

std::optional<PEResult> PECompilerImpl::run() {
  // Pass 0: discovery (argument order and leaf use counts).
  for (const N::MoveClause &C : M->getClauses()) {
    if (!N::isTrueGuard(C.Guard))
      discover(C.Guard);
    discover(C.Src);
    const auto *DstAV = dyn_cast<N::AVarValue>(C.Dst);
    if (!DstAV || !isa<N::EverywhereAction>(DstAV->getAction())) {
      error("CM/PE accepts only everywhere-restricted destinations");
      return std::nullopt;
    }
    fieldPtr(DstAV);
    if (!N::isTrueGuard(C.Guard))
      ++slot(LeafUses, VN.number(DstAV)); // Masked stores re-read the dst.
  }
  if (Failed)
    return std::nullopt;

  // Pass 1: virtual code.
  for (const N::MoveClause &C : M->getClauses()) {
    emitClause(C);
    if (Failed)
      return std::nullopt;
  }

  // Pass 2: chained multiply-add fusion.
  fuseMadds();

  // Pass 3: Belady linear scan onto the vector register file.
  unsigned SpillSlots = 0;
  std::vector<Instruction> Code = allocateRegisters(SpillSlots);

  // Pass 4: dual-issue packing.
  packDualIssue(Code);

  PEResult Result;
  // Appended, not "P" + ...: GCC 12 warns falsely (-Wrestrict) on that.
  Result.Routine.Name = "P";
  Result.Routine.Name += std::to_string(Index) + "vs1";
  Result.Routine.NumPtrArgs = static_cast<unsigned>(PtrArgSpecs.size());
  Result.Routine.NumScalarArgs = static_cast<unsigned>(ScalarArgSpecs.size());
  Result.Routine.NumSpillSlots = SpillSlots;
  Result.Routine.Body = std::move(Code);
  Result.Args = PtrArgSpecs;
  Result.Args.insert(Result.Args.end(), ScalarArgSpecs.begin(),
                     ScalarArgSpecs.end());
  return Result;
}

} // namespace

std::optional<PEResult> backend::compileComputation(
    const N::MoveImp *M, const N::Symbol *StmtDomain,
    const N::ElemTypeInference &Types, const PEOptions &Opts, unsigned Index,
    DiagnosticEngine &Diags) {
  return PECompilerImpl(M, StmtDomain, Types, Opts, Index, Diags).run();
}
