//===- layout/AlignmentSolver.cpp - Greedy alignment solver -----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "layout/AlignmentSolver.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

using namespace f90y;
using namespace f90y::layout;

namespace {

/// Union-find over field indices carrying, per node, its offset relative
/// to the component root (rel[x] = offset(x) - offset(root), one entry
/// per axis).
class OffsetForest {
public:
  explicit OffsetForest(size_t N, size_t MaxRank)
      : Parent(N), Rel(N, std::vector<int64_t>(MaxRank, 0)) {
    for (size_t I = 0; I < N; ++I)
      Parent[I] = I;
  }

  size_t find(size_t X) {
    if (Parent[X] == X)
      return X;
    size_t Root = find(Parent[X]);
    if (Parent[X] != Root) {
      for (size_t D = 0; D < Rel[X].size(); ++D)
        Rel[X][D] += Rel[Parent[X]][D];
      Parent[X] = Root;
    }
    return Root;
  }

  const std::vector<int64_t> &rel(size_t X) {
    find(X);
    return Rel[X];
  }

  /// Requires offset(Dst) - offset(Src) == Delta. Returns true when the
  /// constraint now holds (either by merging or because the existing
  /// placement already satisfies it modulo \p Extents).
  bool constrain(size_t Src, size_t Dst, const std::vector<int64_t> &Delta,
                 const std::vector<int64_t> &Extents) {
    size_t RS = find(Src), RD = find(Dst);
    if (RS == RD) {
      for (size_t D = 0; D < Extents.size(); ++D) {
        int64_t N = Extents[D];
        int64_t Got = Rel[Dst][D] - Rel[Src][D] - Delta[D];
        if (N > 0 ? ((Got % N) + N) % N != 0 : Got != 0)
          return false;
      }
      return true;
    }
    // offset(RD) = offset(Src) + Delta - Rel[Dst]  (all axes).
    Parent[RD] = RS;
    for (size_t D = 0; D < Rel[RD].size(); ++D)
      Rel[RD][D] = Rel[Src][D] + (D < Delta.size() ? Delta[D] : 0) -
                   Rel[Dst][D];
    return true;
  }

private:
  std::vector<size_t> Parent;
  std::vector<std::vector<int64_t>> Rel;
};

} // namespace

SolveResult layout::solveAlignment(const AlignmentGraph &G) {
  SolveResult R;
  // Name order decides the solve: union-find roots, each component's
  // anchor, and so every descriptor follow it. Fields are visited sorted
  // by name, never by symbol id.
  std::vector<const AlignField *> Fields;
  for (const AlignField &F : G.Fields)
    Fields.push_back(&F);
  std::sort(Fields.begin(), Fields.end(),
            [](const AlignField *A, const AlignField *B) {
              return A->Name->Name < B->Name->Name;
            });
  nir::SymbolMap<size_t> Slot; ///< Field -> 1 + its position in Fields.
  size_t MaxRank = 1;
  for (size_t I = 0; I < Fields.size(); ++I) {
    Slot[Fields[I]->Name] = I + 1;
    MaxRank = std::max(MaxRank, Fields[I]->Extents.size());
  }
  if (Fields.empty())
    return R;
  auto Index = [&](const nir::Symbol *S) { return Slot.lookup(S) - 1; };

  OffsetForest Forest(Fields.size(), MaxRank);
  const std::vector<int64_t> ZeroDelta(MaxRank, 0);

  // 1. Mandatory equality constraints. All deltas are zero, so they can
  // never contradict each other.
  for (const AlignEdge &E : G.Edges) {
    if (E.K != AlignEdge::Kind::Equality)
      continue;
    if (!Slot.lookup(E.Src) || !Slot.lookup(E.Dst))
      continue;
    Forest.constrain(Index(E.Src), Index(E.Dst), ZeroDelta,
                     Fields[Index(E.Src)]->Extents);
  }

  // 2. Desired shift edges, heaviest first; ties resolved on the edge's
  // full identity so the solve is independent of discovery order.
  std::vector<const AlignEdge *> ShiftEdges;
  for (const AlignEdge &E : G.Edges)
    if (E.K == AlignEdge::Kind::Shift && Slot.lookup(E.Src) &&
        Slot.lookup(E.Dst))
      ShiftEdges.push_back(&E);
  std::stable_sort(ShiftEdges.begin(), ShiftEdges.end(),
                   [](const AlignEdge *A, const AlignEdge *B) {
                     if (A->Weight != B->Weight)
                       return A->Weight > B->Weight;
                     if (A->Axis != B->Axis)
                       return A->Axis < B->Axis;
                     if (A->Shift != B->Shift)
                       return A->Shift < B->Shift;
                     if (A->Src != B->Src)
                       return A->Src->Name < B->Src->Name;
                     return A->Dst->Name < B->Dst->Name;
                   });
  for (const AlignEdge *E : ShiftEdges) {
    std::vector<int64_t> Delta(MaxRank, 0);
    Delta[E->Axis] = E->Shift;
    Forest.constrain(Index(E->Src), Index(E->Dst), Delta,
                     Fields[Index(E->Src)]->Extents);
  }

  // 3. Anchor every component: pinned members at zero (conflicting pins
  // freeze the component), otherwise the lexicographically least member
  // at zero. Fields are name-ordered, hence deterministic.
  std::map<size_t, std::vector<size_t>> Components;
  for (size_t I = 0; I < Fields.size(); ++I)
    Components[Forest.find(I)].push_back(I);

  std::set<size_t> Frozen; // Component roots forced all-canonical.
  std::map<size_t, std::vector<int64_t>> Anchor; // Root -> offset(root).
  for (const auto &[Root, Members] : Components) {
    bool HavePin = false, PinConflict = false;
    std::vector<int64_t> PinRel;
    for (size_t M : Members) {
      if (!Fields[M]->Pinned)
        continue;
      if (!HavePin) {
        HavePin = true;
        PinRel = Forest.rel(M);
      } else if (Forest.rel(M) != PinRel) {
        PinConflict = true;
      }
    }
    if (PinConflict) {
      Frozen.insert(Root);
      continue;
    }
    // offset(M) = offset(root) + rel(M); a pinned member M needs
    // offset zero, so offset(root) = -rel(M). Unpinned components take
    // the first (lex-least) member as the zero anchor.
    std::vector<int64_t> Base =
        HavePin ? PinRel : Forest.rel(Members.front());
    for (int64_t &V : Base)
      V = -V;
    Anchor[Root] = std::move(Base);
  }

  auto OffsetOf = [&](size_t I) {
    std::vector<int64_t> O(MaxRank, 0);
    size_t Root = Forest.find(I);
    if (Frozen.count(Root))
      return O;
    const std::vector<int64_t> &A = Anchor[Root];
    const std::vector<int64_t> &Rel = Forest.rel(I);
    for (size_t D = 0; D < MaxRank; ++D)
      O[D] = A[D] + Rel[D];
    return O;
  };
  auto Satisfied = [&](const AlignEdge *E) {
    std::vector<int64_t> OS = OffsetOf(Index(E->Src));
    std::vector<int64_t> OD = OffsetOf(Index(E->Dst));
    const std::vector<int64_t> &Ext = Fields[Index(E->Src)]->Extents;
    for (size_t D = 0; D < Ext.size(); ++D) {
      int64_t N = Ext[D];
      int64_t Want = D == E->Axis ? E->Shift : 0;
      int64_t Got = OD[D] - OS[D] - Want;
      if (N > 0 ? ((Got % N) + N) % N != 0 : Got != 0)
        return false;
    }
    return true;
  };

  // 4. Legalization fixpoint: a residual shift edge sweeps slot storage
  // along its axis only, so its endpoints must agree on every other
  // axis. Violations freeze both endpoint components canonical; each
  // round freezes at least one component, so this terminates, and a
  // canonical-canonical edge is always legal.
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const AlignEdge *E : ShiftEdges) {
      if (Satisfied(E))
        continue;
      std::vector<int64_t> OS = OffsetOf(Index(E->Src));
      std::vector<int64_t> OD = OffsetOf(Index(E->Dst));
      bool Legal = true;
      for (size_t D = 0; D < MaxRank; ++D)
        if (D != E->Axis && OS[D] != OD[D])
          Legal = false;
      if (Legal)
        continue;
      Changed |= Frozen.insert(Forest.find(Index(E->Src))).second;
      Changed |= Frozen.insert(Forest.find(Index(E->Dst))).second;
    }
  }

  // Final assignment and accounting.
  R.Layouts.resize(G.Fields.size());
  for (size_t I = 0; I < Fields.size(); ++I) {
    LayoutDescriptor L;
    L.Offsets = OffsetOf(I);
    L.Offsets.resize(Fields[I]->Extents.size(), 0);
    L.normalize(Fields[I]->Extents);
    if (!L.isCanonical())
      ++R.FieldsRealigned;
    R.Layouts[static_cast<size_t>(Fields[I] - G.Fields.data())] = std::move(L);
  }
  for (const AlignEdge *E : ShiftEdges)
    if (Satisfied(E)) {
      ++R.EdgesLocalized;
      R.CommCyclesSaved += E->Weight;
    }
  return R;
}
