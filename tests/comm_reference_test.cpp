//===- tests/comm_reference_test.cpp - Comm ops vs a per-element reference ===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every CM-runtime communication op on ragged geometries (extents the PE
/// grid does not divide, PEs that hold no element) against a compact
/// per-element reference written with Geometry::locate/coordOf. Each case
/// compares every field's whole storage (padding included), every
/// CycleLedger field, and the op's comm.<op>.bytes/hops metrics, at one
/// and at four host threads.
///
//===----------------------------------------------------------------------===//

#include "observe/Metrics.h"
#include "runtime/CmRuntime.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>

using namespace f90y;
using namespace f90y::runtime;

namespace {

using Sec = std::vector<CmRuntime::SectionDim>;

support::ThreadPool &pool(unsigned Threads) {
  static support::ThreadPool One(1), Four(4);
  return Threads == 1 ? One : Four;
}

/// A runtime on a machine of \p PEs processors with metrics attached.
struct Rig {
  cm2::CostModel Costs;
  observe::MetricsRegistry Metrics;
  CmRuntime RT;

  Rig(unsigned PEs, unsigned Threads)
      : Costs(machine(PEs)), RT(Costs, &pool(Threads)) {
    RT.setMetrics(&Metrics);
  }

  static cm2::CostModel machine(unsigned PEs) {
    cm2::CostModel C;
    C.NumPEs = PEs;
    return C;
  }

  /// A field whose every slot, padding included, holds a value set by the
  /// slot and the seed, repeating every 23 slots (some zero, some
  /// negative, most fractional).
  int alloc(const std::vector<int64_t> &Extents, int Seed,
            ElemKind Kind = ElemKind::Real) {
    int H = RT.allocField(
        RT.getGeometry(Extents, std::vector<int64_t>(Extents.size(), 1)),
        Kind);
    std::vector<double> &D = RT.field(H).Data;
    for (size_t I = 0; I < D.size(); ++I) {
      int64_t V = (static_cast<int64_t>(I) * 37 + Seed * 11) % 23 - 7;
      D[I] = static_cast<double>(V) * 0.75;
    }
    return H;
  }
};

int64_t gridCoord(const Geometry &G, int64_t PE, size_t D) {
  for (size_t K = G.rank() - 1; K > D; --K)
    PE /= G.Grid[K];
  return PE % G.Grid[D];
}

int64_t torusHops(const Geometry &G, int64_t A, int64_t B, size_t D) {
  int64_t N = G.Grid[D];
  int64_t Fwd = ((gridCoord(G, B, D) - gridCoord(G, A, D)) % N + N) % N;
  return std::min(Fwd, N - Fwd);
}

/// Steps \p X to the next row-major coordinate of \p Extents; false after
/// the last one.
bool next(std::vector<int64_t> &X, const std::vector<int64_t> &Extents) {
  for (size_t K = X.size(); K-- > 0;) {
    if (++X[K] < Extents[K])
      return true;
    X[K] = 0;
  }
  return false;
}

/// The expected state of a runtime after a sequence of ops: each op's
/// reference updates the field data, ledger and op metrics it predicts.
struct Ref {
  const CmRuntime &RT;
  const cm2::CostModel &Costs;
  std::map<int, std::vector<double>> Data;
  CycleLedger Ledger;
  uint64_t Bytes = 0, Hops = 0;

  Ref(const Rig &R, std::initializer_list<int> Handles)
      : RT(R.RT), Costs(R.Costs) {
    for (int H : Handles)
      Data[H] = RT.field(H).Data;
  }

  const Geometry &geo(int H) const { return *RT.field(H).Geo; }
  double &at(int H, int64_t PE, int64_t Off) {
    return Data[H][static_cast<size_t>(PE * geo(H).PaddedSubgrid + Off)];
  }
  double read(const std::vector<double> &S, int H,
              const std::vector<int64_t> &X) const {
    int64_t PE, Off;
    geo(H).locate(X, PE, Off);
    return S[static_cast<size_t>(PE * geo(H).PaddedSubgrid + Off)];
  }

  /// One clause of cshift/eoshift/multiShift; the source is read as it
  /// stands before the clause writes. Returns (local + fill, hops).
  std::pair<int64_t, int64_t> clause(int Dst, int Src, size_t Axis,
                                     int64_t Shift, bool EndOff) {
    const Geometry &G = geo(Dst);
    const std::vector<double> S = Data[Src];
    const int64_t N = G.Extents[Axis];
    int64_t Local = 0, WireHops = 0;
    std::vector<int64_t> X;
    for (int64_t PE = 0; PE < G.GridPEs; ++PE)
      for (int64_t Off = 0; Off < G.SubgridElems; ++Off) {
        if (!G.coordOf(PE, Off, X))
          continue;
        int64_t P = X[Axis] + Shift;
        if (EndOff && (P < 0 || P >= N)) {
          at(Dst, PE, Off) = 0.0;
          ++Local;
          continue;
        }
        X[Axis] = (P % N + N) % N;
        int64_t SPE, SOff;
        G.locate(X, SPE, SOff);
        at(Dst, PE, Off) =
            S[static_cast<size_t>(SPE * G.PaddedSubgrid + SOff)];
        if (SPE == PE)
          ++Local;
        else
          WireHops += torusHops(G, PE, SPE, Axis);
      }
    return {Local, WireHops};
  }

  void shifts(const std::vector<CmRuntime::ShiftSpec> &Clauses, int Src,
              size_t Axis, bool EndOff) {
    int64_t Local = 0, WireHops = 0;
    for (const CmRuntime::ShiftSpec &C : Clauses) {
      auto [L, H] = clause(C.Dst, Src, Axis, C.Shift, EndOff);
      Local += L;
      WireHops += H;
    }
    const Geometry &G = geo(Src);
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        (Costs.GridLocalPerElem * static_cast<double>(Local) +
         Costs.GridWirePerElemHop * static_cast<double>(WireHops)) /
            static_cast<double>(G.GridPEs);
    Bytes += static_cast<uint64_t>(G.totalElements()) * Clauses.size() * 8;
    Hops += static_cast<uint64_t>(WireHops);
  }

  void transpose(int Dst, int Src) {
    const Geometry &G = geo(Dst);
    const std::vector<double> S = Data[Src];
    std::vector<int64_t> X;
    for (int64_t PE = 0; PE < G.GridPEs; ++PE)
      for (int64_t Off = 0; Off < G.SubgridElems; ++Off)
        if (G.coordOf(PE, Off, X))
          at(Dst, PE, Off) = read(S, Src, {X[1], X[0]});
    routerCharge(G, G.totalElements());
  }

  void spread(int Dst, int Src, size_t Axis) {
    const Geometry &G = geo(Dst);
    std::vector<int64_t> X;
    for (int64_t PE = 0; PE < G.GridPEs; ++PE)
      for (int64_t Off = 0; Off < G.SubgridElems; ++Off)
        if (G.coordOf(PE, Off, X)) {
          X.erase(X.begin() + static_cast<std::ptrdiff_t>(Axis));
          at(Dst, PE, Off) = read(Data[Src], Src, X);
        }
    routerCharge(G, G.totalElements());
  }

  void routerCharge(const Geometry &G, int64_t Elems) {
    Ledger.CommCycles +=
        Costs.CommStartupCycles + Costs.RouterPerElem *
                                      static_cast<double>(Elems) /
                                      static_cast<double>(G.GridPEs);
    Bytes += static_cast<uint64_t>(Elems) * 8;
  }

  void sectionCopy(int Dst, const Sec &DS, int Src, const Sec &SS) {
    const Geometry &DG = geo(Dst), &SG = geo(Src);
    const std::vector<double> S = Data[Src];
    std::vector<int64_t> Counts, Pos(DS.size(), 0), DX(DS.size()),
        SX(SS.size());
    int64_t Total = 1, Local = 0, Remote = 0;
    for (const CmRuntime::SectionDim &D : DS) {
      Counts.push_back(D.Count);
      Total *= D.Count;
    }
    if (Total == 0)
      return;
    do {
      for (size_t K = 0; K < DS.size(); ++K) {
        DX[K] = DS[K].Start + Pos[K] * DS[K].Stride;
        SX[K] = SS[K].Start + Pos[K] * SS[K].Stride;
      }
      int64_t DPE, DOff, SPE, SOff;
      DG.locate(DX, DPE, DOff);
      SG.locate(SX, SPE, SOff);
      double V = S[static_cast<size_t>(SPE * SG.PaddedSubgrid + SOff)];
      at(Dst, DPE, DOff) =
          RT.field(Dst).Kind == ElemKind::Int ? std::trunc(V) : V;
      ++(SPE == DPE ? Local : Remote);
    } while (next(Pos, Counts));
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        (Costs.GridLocalPerElem * static_cast<double>(Local) +
         Costs.RouterPerElem * static_cast<double>(Remote)) /
            static_cast<double>(DG.GridPEs);
    Bytes += static_cast<uint64_t>(Total) * 8;
  }

  /// A fold in element order: the runtime's per-PE-chunk partials and a
  /// reduce-dim line both fold exactly like this.
  struct Fold {
    ReduceOp Op;
    bool Seen = false;
    double Acc = 0;
    int64_t True = 0, Elems = 0;
    void add(double V) {
      if (Op == ReduceOp::Sum)
        Acc += V;
      else if (Op == ReduceOp::Product)
        Acc = Seen ? Acc * V : V;
      else if (Op == ReduceOp::Max)
        Acc = Seen ? (V > Acc ? V : Acc) : V;
      else if (Op == ReduceOp::Min)
        Acc = Seen ? (V < Acc ? V : Acc) : V;
      True += V != 0;
      ++Elems;
      Seen = true;
    }
    double result() const {
      if (Op == ReduceOp::Count)
        return static_cast<double>(True);
      if (Op == ReduceOp::Any)
        return True > 0 ? 1.0 : 0.0;
      if (Op == ReduceOp::All)
        return True == Elems ? 1.0 : 0.0;
      return Acc;
    }
  };

  double reduce(ReduceOp Op, int Src) {
    const Geometry &G = geo(Src);
    const int64_t Chunk = support::ThreadPool::chunkSize(G.GridPEs);
    Fold Total{Op};
    std::vector<int64_t> X;
    for (int64_t Begin = 0; Begin < G.GridPEs; Begin += Chunk) {
      Fold P{Op};
      for (int64_t PE = Begin; PE < std::min(Begin + Chunk, G.GridPEs); ++PE)
        for (int64_t Off = 0; Off < G.SubgridElems; ++Off)
          if (G.coordOf(PE, Off, X))
            P.add(at(Src, PE, Off));
      if (!P.Seen)
        continue;
      if (!Total.Seen) {
        Total = P;
        continue;
      }
      if (Op == ReduceOp::Sum)
        Total.Acc += P.Acc;
      else if (Op == ReduceOp::Product)
        Total.Acc *= P.Acc;
      else if (Op == ReduceOp::Max)
        Total.Acc = P.Acc > Total.Acc ? P.Acc : Total.Acc;
      else if (Op == ReduceOp::Min)
        Total.Acc = P.Acc < Total.Acc ? P.Acc : Total.Acc;
      Total.True += P.True;
      Total.Elems += P.Elems;
    }
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        static_cast<double>(G.SubgridElems) * Costs.VectorAluCycles /
            static_cast<double>(Costs.VectorWidth) +
        std::ceil(std::log2(static_cast<double>(G.GridPEs) + 1)) *
            Costs.ReduceStepCycles;
    if (Op == ReduceOp::Sum || Op == ReduceOp::Product)
      Ledger.Flops += static_cast<uint64_t>(G.totalElements());
    Bytes += static_cast<uint64_t>(G.totalElements()) * 8;
    return Total.result();
  }

  void reduceAlongDim(ReduceOp Op, int Dst, int Src, size_t Axis) {
    const Geometry &DG = geo(Dst), &SG = geo(Src);
    std::vector<int64_t> X(DG.rank(), 0);
    do {
      Fold F{Op};
      std::vector<int64_t> SX = X;
      SX.insert(SX.begin() + static_cast<std::ptrdiff_t>(Axis), 0);
      for (SX[Axis] = 0; SX[Axis] < SG.Extents[Axis]; ++SX[Axis])
        F.add(read(Data[Src], Src, SX));
      double V = F.result();
      int64_t PE, Off;
      DG.locate(X, PE, Off);
      at(Dst, PE, Off) =
          RT.field(Dst).Kind == ElemKind::Int ? std::trunc(V) : V;
    } while (next(X, DG.Extents));
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        static_cast<double>(SG.SubgridElems) * Costs.VectorAluCycles /
            static_cast<double>(Costs.VectorWidth) +
        std::ceil(std::log2(static_cast<double>(SG.Grid[Axis]) + 1)) *
            Costs.ReduceStepCycles +
        Costs.RouterPerElem * static_cast<double>(DG.totalElements()) /
            static_cast<double>(DG.GridPEs);
    if (Op == ReduceOp::Sum || Op == ReduceOp::Product)
      Ledger.Flops += static_cast<uint64_t>(SG.totalElements());
    Bytes += static_cast<uint64_t>(SG.totalElements()) * 8;
  }

  std::string render(int H) {
    const Geometry &G = geo(H);
    const PeArray &A = RT.field(H);
    std::string Out;
    std::vector<int64_t> X(G.rank(), 0), Slot;
    do {
      A.toSlot(X, Slot);
      double V = read(Data[H], H, Slot);
      Out += Out.empty() ? "" : " ";
      Out += A.Kind == ElemKind::Int    ? std::to_string(int64_t(V))
             : A.Kind == ElemKind::Bool ? (V != 0 ? "T" : "F")
                                        : formatDouble(V);
    } while (next(X, G.Extents));
    Ledger.CommCycles +=
        Costs.RouterPerElem * static_cast<double>(G.totalElements());
    Bytes += static_cast<uint64_t>(G.totalElements()) * 8;
    return Out;
  }
};

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (std::bit_cast<uint64_t>(A[I]) != std::bit_cast<uint64_t>(B[I]))
      return false;
  return true;
}

/// Every field's storage, every ledger field, and the op's metrics.
void expectMatches(const Rig &R, const Ref &E, const std::string &Op) {
  for (const auto &[H, D] : E.Data)
    EXPECT_TRUE(sameBits(R.RT.field(H).Data, D)) << Op << " field " << H;
  const CycleLedger &L = R.RT.ledger();
  EXPECT_EQ(L.NodeCycles, E.Ledger.NodeCycles) << Op;
  EXPECT_EQ(L.CallCycles, E.Ledger.CallCycles) << Op;
  EXPECT_EQ(L.CommCycles, E.Ledger.CommCycles) << Op;
  EXPECT_EQ(L.HostCycles, E.Ledger.HostCycles) << Op;
  EXPECT_EQ(L.OverlappedCycles, E.Ledger.OverlappedCycles) << Op;
  EXPECT_EQ(L.Flops, E.Ledger.Flops) << Op;
  EXPECT_EQ(R.Metrics.value("comm." + Op + ".bytes"),
            static_cast<double>(E.Bytes))
      << Op;
  EXPECT_EQ(R.Metrics.value("comm." + Op + ".hops"),
            static_cast<double>(E.Hops))
      << Op;
}

struct Shape {
  std::vector<int64_t> Extents;
  unsigned PEs;
};

/// Ragged shapes of rank 1-3: {9} over 8 PEs has Sub 2 and PEs 5-7 empty.
const std::vector<Shape> RaggedShapes = {
    {{9}, 8}, {{3}, 8}, {{5, 7}, 8}, {{2, 11}, 16}, {{3, 5, 4}, 8}};

std::vector<int64_t> shiftsFor(int64_t Sub, int64_t N) {
  std::vector<int64_t> Out;
  for (int64_t S : {int64_t(0), int64_t(1), Sub - 1, Sub, Sub + 1, N - 1, N,
                    N + 1}) {
    Out.push_back(S);
    Out.push_back(-S);
  }
  return Out;
}

std::string describe(const std::vector<int64_t> &V) {
  std::string S;
  for (int64_t E : V) {
    if (!S.empty())
      S += 'x';
    S += std::to_string(E);
  }
  return S;
}

// Regions are checked once, before any data moves: an embedder that passes
// a section outside its array, or fields whose extents disagree, stops
// with a diagnostic instead of reading or writing past the heap block.
class CommRegionDeathTest : public ::testing::Test {
protected:
  cm2::CostModel Costs = Rig::machine(8);
  CmRuntime RT{Costs};
  int field(const std::vector<int64_t> &Extents) {
    return RT.allocField(
        RT.getGeometry(Extents, std::vector<int64_t>(Extents.size(), 1)),
        ElemKind::Real);
  }
};

TEST_F(CommRegionDeathTest, SectionOutsideItsArray) {
  int H = field({8});
  EXPECT_DEATH(RT.sectionCopy(H, {{6, 1, 4}}, H, {{0, 1, 4}}),
               "region lies outside its array");
}

TEST_F(CommRegionDeathTest, EoshiftExtentMismatch) {
  int D = field({16}), S = field({4});
  EXPECT_DEATH(RT.eoshift(D, S, 1, 1), "extents disagree");
}

TEST_F(CommRegionDeathTest, SpreadExtentMismatch) {
  int D = field({4, 5}), S = field({6});
  EXPECT_DEATH(RT.spreadAlongDim(D, S, 1), "extents disagree");
}

TEST_F(CommRegionDeathTest, ReduceDimExtentMismatch) {
  int D = field({5}), S = field({4, 6});
  EXPECT_DEATH(RT.reduceAlongDim(ReduceOp::Sum, D, S, 1), "extents disagree");
}

TEST(CommReference, CShiftAndEoshiftOnRaggedGeometries) {
  for (const Shape &Sh : RaggedShapes)
    for (unsigned Dim = 1; Dim <= Sh.Extents.size(); ++Dim) {
      Geometry G = Geometry::layout(Sh.Extents, {}, Sh.PEs, 4);
      for (int64_t Shift : shiftsFor(G.Sub[Dim - 1], Sh.Extents[Dim - 1]))
        for (bool EndOff : {false, true})
          for (unsigned Threads : {1u, 4u}) {
            SCOPED_TRACE(describe(Sh.Extents) + " dim " +
                         std::to_string(Dim) + " shift " +
                         std::to_string(Shift) + (EndOff ? " eo" : " c") +
                         " threads " + std::to_string(Threads));
            Rig R(Sh.PEs, Threads);
            int Src = R.alloc(Sh.Extents, 1), Dst = R.alloc(Sh.Extents, 2);
            Ref E(R, {Src, Dst});
            E.shifts({{Dst, Shift}}, Src, Dim - 1, EndOff);
            ASSERT_TRUE((EndOff ? R.RT.eoshift(Dst, Src, Dim, Shift)
                                : R.RT.cshift(Dst, Src, Dim, Shift))
                            .isOk());
            expectMatches(R, E, EndOff ? "eoshift" : "cshift");
          }
    }
}

TEST(CommReference, ShiftOntoItselfReadsTheOldSource) {
  for (bool EndOff : {false, true})
    for (unsigned Threads : {1u, 4u}) {
      Rig R(8, Threads);
      int H = R.alloc({5, 7}, 3);
      Ref E(R, {H});
      E.shifts({{H, 3}}, H, 1, EndOff);
      ASSERT_TRUE((EndOff ? R.RT.eoshift(H, H, 2, 3)
                          : R.RT.cshift(H, H, 2, 3))
                      .isOk());
      expectMatches(R, E, EndOff ? "eoshift" : "cshift");
    }
}

TEST(CommReference, MultiShiftWithAliasedClause) {
  for (const Shape &Sh : RaggedShapes)
    for (unsigned Dim = 1; Dim <= Sh.Extents.size(); ++Dim)
      for (bool EndOff : {false, true})
        for (unsigned Threads : {1u, 4u}) {
          SCOPED_TRACE(describe(Sh.Extents) + " dim " + std::to_string(Dim) +
                       (EndOff ? " eo" : " c") + " threads " +
                       std::to_string(Threads));
          Rig R(Sh.PEs, Threads);
          int Src = R.alloc(Sh.Extents, 4), A = R.alloc(Sh.Extents, 5),
              B = R.alloc(Sh.Extents, 6);
          // The aliased clause rewrites the source between A's and B's.
          std::vector<CmRuntime::ShiftSpec> Clauses = {
              {A, 1}, {Src, -2}, {B, Sh.Extents[Dim - 1] + 1}};
          Ref E(R, {Src, A, B});
          E.shifts(Clauses, Src, Dim - 1, EndOff);
          ASSERT_TRUE(R.RT.multiShift(Clauses, Src, Dim, EndOff).isOk());
          expectMatches(R, E, "multi-shift");
          EXPECT_EQ(R.Metrics.value("comm.coalesced"), 2.0);
        }
}

TEST(CommReference, RaggedTransposes) {
  const std::vector<Shape> Shapes = {
      {{5, 7}, 8}, {{9, 3}, 8}, {{2, 11}, 16}, {{1, 6}, 8}, {{6, 13}, 32}};
  for (const Shape &Sh : Shapes)
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(describe(Sh.Extents));
      Rig R(Sh.PEs, Threads);
      int Src = R.alloc(Sh.Extents, 7),
          Dst = R.alloc({Sh.Extents[1], Sh.Extents[0]}, 8);
      Ref E(R, {Src, Dst});
      E.transpose(Dst, Src);
      ASSERT_TRUE(R.RT.transpose(Dst, Src).isOk());
      expectMatches(R, E, "transpose");
    }
  // A square ragged field transposed onto itself.
  for (unsigned Threads : {1u, 4u}) {
    Rig R(8, Threads);
    int H = R.alloc({5, 5}, 9);
    Ref E(R, {H});
    E.transpose(H, H);
    ASSERT_TRUE(R.RT.transpose(H, H).isOk());
    expectMatches(R, E, "transpose");
  }
}

TEST(CommReference, SpreadAlongEachDim) {
  const std::vector<Shape> Shapes = {
      {{9, 5}, 8}, {{2, 11}, 16}, {{3, 5, 4}, 8}, {{7, 1, 3}, 8}};
  for (const Shape &Sh : Shapes)
    for (unsigned Dim = 1; Dim <= Sh.Extents.size(); ++Dim)
      for (unsigned Threads : {1u, 4u}) {
        SCOPED_TRACE(describe(Sh.Extents) + " dim " + std::to_string(Dim));
        Rig R(Sh.PEs, Threads);
        std::vector<int64_t> SrcExt = Sh.Extents;
        SrcExt.erase(SrcExt.begin() + Dim - 1);
        int Src = R.alloc(SrcExt, 10), Dst = R.alloc(Sh.Extents, 11);
        Ref E(R, {Src, Dst});
        E.spread(Dst, Src, Dim - 1);
        ASSERT_TRUE(R.RT.spreadAlongDim(Dst, Src, Dim).isOk());
        expectMatches(R, E, "spread");
      }
}

const ReduceOp AllOps[] = {ReduceOp::Sum,   ReduceOp::Product,
                           ReduceOp::Max,   ReduceOp::Min,
                           ReduceOp::Count, ReduceOp::Any,
                           ReduceOp::All};

TEST(CommReference, ReduceAlongEachDimWithEveryOp) {
  const std::vector<Shape> Shapes = {
      {{5, 7}, 8}, {{9, 3}, 8}, {{2, 11}, 16}, {{3, 5, 4}, 8}};
  for (const Shape &Sh : Shapes)
    for (unsigned Dim = 1; Dim <= Sh.Extents.size(); ++Dim)
      for (ReduceOp Op : AllOps)
        for (ElemKind Kind : {ElemKind::Real, ElemKind::Int})
          for (unsigned Threads : {1u, 4u}) {
            SCOPED_TRACE(describe(Sh.Extents) + " dim " +
                         std::to_string(Dim) + " op " +
                         std::to_string(static_cast<int>(Op)));
            Rig R(Sh.PEs, Threads);
            std::vector<int64_t> DstExt = Sh.Extents;
            DstExt.erase(DstExt.begin() + Dim - 1);
            int Src = R.alloc(Sh.Extents, 12), Dst = R.alloc(DstExt, 13, Kind);
            Ref E(R, {Src, Dst});
            E.reduceAlongDim(Op, Dst, Src, Dim - 1);
            ASSERT_TRUE(R.RT.reduceAlongDim(Op, Dst, Src, Dim).isOk());
            expectMatches(R, E, "reduce-dim");
          }
}

TEST(CommReference, FullReductionsWithEveryOp) {
  const std::vector<Shape> Shapes = {{{9}, 8},
                                     {{5, 7}, 8},
                                     {{3, 5, 4}, 8},
                                     {{37, 9}, 128},
                                     {{300}, 2048}};
  for (const Shape &Sh : Shapes)
    for (ReduceOp Op : AllOps)
      for (unsigned Threads : {1u, 4u}) {
        SCOPED_TRACE(describe(Sh.Extents) + " op " +
                     std::to_string(static_cast<int>(Op)));
        Rig R(Sh.PEs, Threads);
        int Src = R.alloc(Sh.Extents, 14);
        Ref E(R, {Src});
        double Want = E.reduce(Op, Src);
        support::RtResult<double> Got = R.RT.tryReduce(Op, Src);
        ASSERT_TRUE(Got.isOk());
        EXPECT_EQ(std::bit_cast<uint64_t>(Got.value()),
                  std::bit_cast<uint64_t>(Want));
        expectMatches(R, E, "reduce");
      }
}

TEST(CommReference, SectionCopiesWithNegativeStridesAndOverlap) {
  struct Case {
    std::vector<int64_t> DstExt, SrcExt; ///< SrcExt empty: same field.
    unsigned PEs;
    Sec DS, SS;
    ElemKind Kind = ElemKind::Real;
  };
  const std::vector<Case> Cases = {
      {{9}, {9}, 8, {{8, -3, 3}}, {{0, 3, 3}}},
      {{9}, {}, 8, {{1, 1, 8}}, {{0, 1, 8}}},
      {{9}, {}, 8, {{0, 1, 8}}, {{1, 1, 8}}},
      {{9}, {}, 8, {{0, 1, 9}}, {{8, -1, 9}}},
      {{9}, {}, 8, {{1, 2, 4}}, {{0, 2, 4}}},
      {{9}, {}, 8, {{2, 1, 0}}, {{0, 1, 0}}},
      {{5, 7}, {7, 5}, 8, {{4, -1, 3}, {0, 2, 4}}, {{0, 3, 3}, {4, -1, 4}}},
      {{5, 7}, {}, 8, {{0, 1, 4}, {6, -2, 3}}, {{1, 1, 4}, {1, 2, 3}}},
      {{3, 5, 4},
       {},
       8,
       {{0, 1, 2}, {4, -1, 3}, {1, 2, 2}},
       {{1, 1, 2}, {0, 2, 3}, {0, 1, 2}}},
      {{2, 11},
       {9, 3},
       16,
       {{1, -1, 2}, {10, -4, 3}},
       {{0, 8, 2}, {2, -1, 3}}},
      {{5, 7},
       {7, 5},
       8,
       {{0, 2, 3}, {6, -3, 3}},
       {{6, -1, 3}, {0, 2, 3}},
       ElemKind::Int},
  };
  for (const Case &C : Cases)
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(describe(C.DstExt) + " <- " + describe(C.SrcExt));
      Rig R(C.PEs, Threads);
      int Dst = R.alloc(C.DstExt, 15, C.Kind);
      int Src = C.SrcExt.empty() ? Dst : R.alloc(C.SrcExt, 16);
      Ref E(R, {Dst, Src});
      E.sectionCopy(Dst, C.DS, Src, C.SS);
      ASSERT_TRUE(R.RT.sectionCopy(Dst, C.DS, Src, C.SS).isOk());
      expectMatches(R, E, "section-copy");
    }
}

TEST(CommReference, RenderThroughLayoutOffsets) {
  struct Case {
    std::vector<int64_t> Extents;
    ElemKind Kind;
    std::vector<int64_t> Offsets; ///< Empty: canonical placement.
  };
  const std::vector<Case> Cases = {{{9}, ElemKind::Real, {}},
                                   {{9}, ElemKind::Bool, {-3}},
                                   {{5, 7}, ElemKind::Real, {2, -1}},
                                   {{3, 5, 4}, ElemKind::Int, {1, 0, 3}}};
  for (const Case &C : Cases)
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(describe(C.Extents));
      Rig R(8, Threads);
      int H = R.alloc(C.Extents, 17, C.Kind);
      if (!C.Offsets.empty()) {
        std::vector<int64_t> Axes(C.Extents.size());
        for (size_t D = 0; D < Axes.size(); ++D)
          Axes[D] = static_cast<int64_t>(D);
        R.RT.setFieldLayout(H, Axes, C.Offsets);
      }
      Ref E(R, {H});
      std::string Want = E.render(H);
      support::RtResult<std::string> Got = R.RT.tryRenderField(H);
      ASSERT_TRUE(Got.isOk());
      EXPECT_EQ(Got.value(), Want);
      expectMatches(R, E, "field-render");
    }
}

TEST(CommReference, CoordFieldsOnRaggedGeometries) {
  const std::vector<std::pair<Shape, std::vector<int64_t>>> Cases = {
      {{{9}, 8}, {-4}}, {{{5, 7}, 8}, {0, -2}}, {{{3, 5, 4}, 8}, {1, 1, 3}}};
  for (const auto &[Sh, Los] : Cases)
    for (unsigned Dim = 1; Dim <= Sh.Extents.size(); ++Dim) {
      Rig R(Sh.PEs, 1);
      const Geometry *G = R.RT.getGeometry(Sh.Extents, Los);
      std::vector<double> Want(
          static_cast<size_t>(G->GridPEs * G->PaddedSubgrid), 0.0);
      std::vector<int64_t> X;
      for (int64_t PE = 0; PE < G->GridPEs; ++PE)
        for (int64_t Off = 0; Off < G->SubgridElems; ++Off)
          if (G->coordOf(PE, Off, X))
            Want[static_cast<size_t>(PE * G->PaddedSubgrid + Off)] =
                static_cast<double>(X[Dim - 1] + Los[Dim - 1]);
      int H = R.RT.coordField(G, Dim);
      EXPECT_TRUE(sameBits(R.RT.field(H).Data, Want))
          << describe(Sh.Extents) << " dim " << Dim;
      EXPECT_EQ(R.RT.ledger().total(), 0.0);
    }
}

} // namespace
