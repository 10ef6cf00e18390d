//===- nir/Equality.cpp - Structural value numbering ----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/Equality.h"

#include <algorithm>
#include <bit>

using namespace f90y;
using namespace f90y::nir;

namespace {

/// Key tags, one per key shape; operators and type kinds are added to the
/// first three. Lists (call arguments, subscripts, triplets) number as a
/// head extended one element at a time.
enum Tag : uint32_t { TBinary = 0x100, TUnary = 0x200, TConst = 0x300,
  TBool = 0x400, TSVar, TStr, TCall, TCallArg, TAVarName, TAVar, TEverywhere,
  TSubscript, TSubscriptIdx, TSection, TTriplet, TLocal };

} // namespace

size_t ValueNumbering::KeyHash::operator()(const Key &K) const {
  uint64_t H = (uint64_t(K.Tag) << 32 | K.A) * 0x9E3779B97F4A7C15ull;
  H ^= (uint64_t(K.B) << 29 | K.B >> 3) + K.Bits * 0xC2B2AE3D27D4EB4Full;
  return static_cast<size_t>(H ^ (H >> 31));
}

unsigned ValueNumbering::intern(Key K, std::initializer_list<unsigned> Parts,
                                const Symbol *Own) {
  auto [It, New] = Numbers.try_emplace(K, Begin.size() - 1);
  if (!New)
    return It->second;
  size_t First = Pool.size();
  if (Own)
    Pool.push_back(Own->Id);
  for (unsigned P : Parts)
    for (uint32_t I = Begin[P]; I < Begin[P + 1]; ++I) {
      uint32_t Id = Pool[I];
      Pool.push_back(Id);
    }
  std::sort(Pool.begin() + First, Pool.end());
  Pool.erase(std::unique(Pool.begin() + First, Pool.end()), Pool.end());
  Begin.push_back(static_cast<uint32_t>(Pool.size()));
  return It->second;
}

unsigned ValueNumbering::numberAction(const FieldAction *F) {
  if (const auto *Sub = dyn_cast<SubscriptAction>(F)) {
    unsigned N = intern({TSubscript, 0, 0, 0});
    for (const Value *I : Sub->getIndices()) {
      unsigned E = number(I);
      N = intern({TSubscriptIdx, N, E, 0}, {N, E});
    }
    return N;
  }
  if (const auto *Sec = dyn_cast<SectionAction>(F)) {
    unsigned N = intern({TSection, 0, 0, 0});
    for (const SectionTriplet &T : Sec->getTriplets()) {
      if (T.All) // Prints ':' whatever its bounds.
        N = intern({TTriplet, N, 1, 0});
      else
        for (int64_t Bound : {T.Lo, T.Hi, T.Stride})
          N = intern({TTriplet, N, 0, uint64_t(Bound)});
    }
    return N;
  }
  return intern({TEverywhere, 0, 0, 0});
}

unsigned ValueNumbering::number(const Value *V) {
  if (auto It = Memo.find(V); It != Memo.end())
    return It->second;
  unsigned N = 0;
  switch (V->getKind()) {
  case Value::Kind::Binary: {
    const auto *B = cast<BinaryValue>(V);
    unsigned L = number(B->getLHS()), R = number(B->getRHS());
    N = intern({TBinary + static_cast<uint32_t>(B->getOp()), L, R, 0},
               {L, R});
    break;
  }
  case Value::Kind::Unary: {
    const auto *U = cast<UnaryValue>(V);
    unsigned C = number(U->getOperand());
    N = intern({TUnary + static_cast<uint32_t>(U->getOp()), C, 0, 0}, {C});
    break;
  }
  case Value::Kind::SVar: {
    const Symbol *S = cast<SVarValue>(V)->getSymbol();
    N = intern({TSVar, S->Id, 0, 0}, {}, S);
    break;
  }
  case Value::Kind::ScalarConst: {
    const auto *C = cast<ScalarConstValue>(V);
    if (C->isBool())
      N = intern({TBool, C->getBool(), 0, 0});
    else
      N = intern({TConst + static_cast<uint32_t>(C->getType()->getKind()),
                  C->isInt(), 0,
                  C->isInt() ? uint64_t(C->getInt())
                             : std::bit_cast<uint64_t>(C->getFloat())});
    break;
  }
  case Value::Kind::StrConst: {
    const std::string &S = cast<StrConstValue>(V)->getStr();
    auto It = Strings.try_emplace(S, Strings.size()).first;
    N = intern({TStr, It->second, 0, 0});
    break;
  }
  case Value::Kind::FcnCall: {
    const auto *F = cast<FcnCallValue>(V);
    N = intern({TCall, F->getSymbol()->Id, 0, 0}, {}, F->getSymbol());
    for (const Value *A : F->getArgs()) {
      unsigned E = number(A);
      N = intern({TCallArg, N, E, 0}, {N, E});
    }
    break;
  }
  case Value::Kind::AVar: {
    const auto *A = cast<AVarValue>(V);
    unsigned Name =
        intern({TAVarName, A->getSymbol()->Id, 0, 0}, {}, A->getSymbol());
    unsigned Act = numberAction(A->getAction());
    N = intern({TAVar, Name, Act, 0}, {Name, Act});
    break;
  }
  case Value::Kind::LocalCoord: {
    const auto *L = cast<LocalCoordValue>(V);
    N = intern({TLocal, L->getSymbol()->Id, L->getDim(), 0}, {},
               L->getSymbol());
    break;
  }
  }
  Memo.emplace(V, N);
  return N;
}

bool ValueNumbering::mentions(unsigned VN, const Symbol *S) const {
  return std::binary_search(Pool.begin() + Begin[VN],
                            Pool.begin() + Begin[VN + 1], S->Id);
}
