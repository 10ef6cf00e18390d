//===- runtime/RegionWalk.cpp - Block-at-a-time region walks --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/RegionWalk.h"

#include "support/RtStatus.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <tuple>

using namespace f90y;
using namespace f90y::runtime;

namespace {

/// Ceiling of A / B for B > 0 (blocks mostly step by one).
int64_t ceilDiv(int64_t A, int64_t B) {
  return B == 1 ? A : A / B + (A % B > 0);
}

/// The positions [Lo, Hi) of \p S whose coordinates lie in [BLo, BHi).
void positionsIn(SectionDim S, int64_t BLo, int64_t BHi, int64_t &Lo,
                 int64_t &Hi) {
  if (S.Stride < 0) { // Mirror: -x lies in [1 - BHi, 1 - BLo).
    S = {-S.Start, -S.Stride, S.Count};
    std::tie(BLo, BHi) = std::pair(1 - BHi, 1 - BLo);
  }
  if (S.Stride == 0) {
    Lo = 0;
    Hi = S.Start >= BLo && S.Start < BHi ? S.Count : 0;
    return;
  }
  Lo = std::max<int64_t>(0, ceilDiv(BLo - S.Start, S.Stride));
  Hi = std::min(S.Count, ceilDiv(BHi - S.Start, S.Stride));
}

constexpr int64_t Unbounded = std::numeric_limits<int64_t>::max();

/// How many steps of \p Step from a coordinate \p Y outside [0, N) stay
/// outside: all of them unless the steps head back in.
int64_t fillSteps(int64_t Y, int64_t Step, int64_t N) {
  if (Step > 0 && Y < 0)
    return ceilDiv(-Y, Step);
  if (Step < 0 && Y >= N)
    return ceilDiv(Y - N + 1, -Step);
  return Unbounded;
}

/// How many steps of \p Step from a coordinate \p In slots into its
/// source block, with \p Room slots from it to the block's (or the
/// array's) end, stay in the block.
int64_t blockSteps(int64_t In, int64_t Room, int64_t Step) {
  if (Step > 0)
    return ceilDiv(Room, Step);
  if (Step < 0)
    return In / -Step + 1;
  return Unbounded;
}

/// \p V as a block field; a walk whose steps need more than 32 bits
/// would need a subgrid of billions of slots.
int32_t narrow(int64_t V) {
  F90Y_CHECK(V >= std::numeric_limits<int32_t>::min() &&
                 V <= std::numeric_limits<int32_t>::max(),
             "walk block step exceeds 32 bits");
  return static_cast<int32_t>(V);
}

/// The step from \p From's source at which \p To's continues it after
/// \p N steps of \p Step (any step when N is 1, so it is To's offset),
/// or nothing when it does not, or the step needs more than 32 bits.
std::optional<int32_t> continuing(int64_t From, int64_t To, int64_t N,
                                  int64_t Step) {
  if (N == 1)
    Step = To - From;
  if (To != From + N * Step || Step != static_cast<int32_t>(Step))
    return std::nullopt;
  return static_cast<int32_t>(Step);
}

} // namespace

Region::Region(const Geometry &G) : Geo(&G) {
  for (int64_t E : G.Extents)
    Dims.push_back({0, 1, E});
}

Region::Region(const Geometry &G, std::vector<SectionDim> Dims)
    : Geo(&G), Dims(std::move(Dims)) {
  F90Y_CHECK(this->Dims.size() == G.rank(),
             "region rank differs from its array's");
  for (size_t D = 0; D < G.rank(); ++D) {
    const SectionDim &S = this->Dims[D];
    int64_t Last = S.Start + S.Stride * (S.Count - 1);
    F90Y_CHECK(S.Count == 0 ||
                   (S.Count > 0 && std::min(S.Start, Last) >= 0 &&
                    std::max(S.Start, Last) < G.Extents[D]),
               "region lies outside its array");
  }
}

RegionWalk::RegionWalk(Region Dst, Region Src, std::vector<int> From,
                       std::vector<int64_t> Shift, bool EndOff)
    : Dst(std::move(Dst)), Src(std::move(Src)), From(std::move(From)),
      Shift(std::move(Shift)), EndOff(EndOff) {
  const size_t Rank = this->Src.Dims.size();
  if (this->From.empty())
    for (size_t J = 0; J < Rank; ++J)
      this->From.push_back(static_cast<int>(J));
  this->Shift.resize(Rank, 0);
  F90Y_CHECK(this->From.size() == Rank, "walk map rank differs from source");
  for (size_t J = 0; J < Rank; ++J) {
    int F = this->From[J];
    F90Y_CHECK(F < static_cast<int>(this->Dst.Dims.size()) &&
                   (F < 0 || this->Src.Dims[J].Count ==
                                 this->Dst.Dims[static_cast<size_t>(F)].Count),
               "regions' extents disagree");
  }
}

int RegionWalk::shiftAxis() const {
  int Axis = -1;
  for (size_t J = 0; J < Shift.size(); ++J)
    if (Shift[J] != 0) {
      if (Axis >= 0)
        return -1;
      Axis = static_cast<int>(J);
    }
  return Axis;
}

int64_t RegionWalk::dstStep() const { return Dst.Dims.back().Stride; }

int64_t RegionWalk::dstRow() const {
  const size_t Last = Dst.Dims.size() - 1;
  return Last ? Dst.Dims[Last - 1].Stride * Dst.Geo->OffStride[Last - 1] : 0;
}

bool RegionWalk::bounds(int64_t PE, std::vector<int64_t> &Lo,
                        std::vector<int64_t> &Hi) const {
  const Geometry &DG = *Dst.Geo;
  for (size_t D = 0; D < Dst.Dims.size(); ++D) {
    int64_t BLo = PE / DG.PEStride[D] % DG.Grid[D] * DG.Sub[D];
    positionsIn(Dst.Dims[D], BLo, std::min(BLo + DG.Sub[D], DG.Extents[D]),
                Lo[D], Hi[D]);
    if (Lo[D] >= Hi[D])
      return false;
  }
  return true;
}

int64_t RegionWalk::dstOffset(const std::vector<int64_t> &P) const {
  const Geometry &DG = *Dst.Geo;
  int64_t Off = 0;
  for (size_t D = 0; D < Dst.Dims.size(); ++D)
    Off += (Dst.Dims[D].Start + Dst.Dims[D].Stride * P[D]) % DG.Sub[D] *
           DG.OffStride[D];
  return Off;
}

void RegionWalk::source(const std::vector<int64_t> &P, int64_t Left,
                        Run &R) const {
  const Geometry &SG = *Src.Geo;
  const int Last = static_cast<int>(P.size()) - 1;
  R.Len = Left;
  R.Fill = false;
  R.SrcPE = R.SrcOff = R.SrcStep = R.SrcRow = 0;
  for (size_t J = 0; J < Src.Dims.size(); ++J) {
    const SectionDim &S = Src.Dims[J];
    const int F = From[J];
    const int64_t N = SG.Extents[J], Sub = SG.Sub[J];
    // The coordinate's step along a block's slots and down its rows.
    const int64_t Step = F == Last ? S.Stride : 0;
    const int64_t RowStep = F >= 0 && F + 1 == Last ? S.Stride : 0;
    int64_t Y = S.Start + (F < 0 ? 0 : S.Stride * P[static_cast<size_t>(F)]) +
                Shift[J];
    if (!EndOff && (Y < 0 || Y >= N))
      Y = (Y % N + N) % N;
    if (Y < 0 || Y >= N) { // Fill until the coordinate comes back in.
      R.Fill = true;
      R.Len = std::min(R.Len, fillSteps(Y, Step, N));
      R.Rows = std::min(R.Rows, fillSteps(Y, RowStep, N));
      continue;
    }
    // Stay inside the source block that holds Y.
    const int64_t Block = Y / Sub, In = Y % Sub;
    const int64_t Room = std::min(Sub - In, N - Y);
    R.Len = std::min(R.Len, blockSteps(In, Room, Step));
    R.Rows = std::min(R.Rows, blockSteps(In, Room, RowStep));
    R.SrcPE += Block * SG.PEStride[J];
    R.SrcOff += In * SG.OffStride[J];
    R.SrcStep += Step * SG.OffStride[J];
    R.SrcRow += RowStep * SG.OffStride[J];
  }
}

RegionWalk WalkKey::walk() const {
  return RegionWalk(DstSec.empty() ? Region(*Dst) : Region(*Dst, DstSec),
                    SrcSec.empty() ? Region(*Src) : Region(*Src, SrcSec),
                    From, Shift, EndOff);
}

WalkPlan::WalkPlan(RegionWalk W)
    : Walk(std::move(W)), DstPEs(Walk->dst().GridPEs),
      DstStep(Walk->dstStep()), DstRow(Walk->dstRow()),
      HopAxis(Walk->shiftAxis()) {}

int64_t WalkPlan::blocks() const {
  int64_t N = 0;
  for (const std::vector<Block> &C : Chunks)
    N += static_cast<int64_t>(C.size());
  return N;
}

WalkPlan::Block WalkPlan::record(const Run &R, Totals &T) const {
  const Geometry &DG = Walk->dst(), &SG = Walk->src();
  int64_t Len = R.Len, Rows = R.Rows;
  if (R.Fill || R.SrcPE == R.DstPE)
    T.Local += Len * Rows;
  else if (HopAxis >= 0)
    T.Hops += Len * Rows * DG.hopDistance(R.DstPE, R.SrcPE,
                                          static_cast<size_t>(HopAxis));
  // Rows that lie end to end on both sides make one row.
  if (Rows > 1 && DstRow == Len * DstStep &&
      (R.Fill || R.SrcRow == Len * R.SrcStep)) {
    Len *= Rows;
    Rows = 1;
  }
  Block B;
  B.Dst = R.DstPE * DG.PaddedSubgrid + R.DstOff;
  B.Src = R.Fill ? -1 : R.SrcPE * SG.PaddedSubgrid + R.SrcOff;
  B.Len = narrow(Len);
  B.Rows = narrow(Rows);
  // A step that no slot takes is 0, so it never needs to fit.
  B.SrcStep = R.Fill || Len == 1 ? 0 : narrow(R.SrcStep);
  B.SrcRow = R.Fill || Rows == 1 ? 0 : narrow(R.SrcRow);
  return B;
}

bool WalkPlan::extend(Block &Prev, const Block &B) const {
  if (B.fill() != Prev.fill())
    return false;
  // B goes on along Prev's rows: the next slots of the same rows.
  if (B.Rows == Prev.Rows && B.Dst == Prev.Dst + Prev.Len * DstStep &&
      int64_t{Prev.Len} + B.Len <= std::numeric_limits<int32_t>::max()) {
    std::optional<int32_t> Step =
        B.fill() ? 0 : continuing(Prev.Src, B.Src, Prev.Len, Prev.SrcStep);
    if (Step && (B.Len == 1 || B.SrcStep == *Step) &&
        (Prev.Rows == 1 || B.SrcRow == Prev.SrcRow)) {
      Prev.SrcStep = *Step;
      Prev.Len += B.Len;
      return true;
    }
  }
  // B goes on down Prev's rows: the next rows of the same slots.
  if (B.Len == Prev.Len && B.Dst == Prev.Dst + Prev.Rows * DstRow &&
      int64_t{Prev.Rows} + B.Rows <= std::numeric_limits<int32_t>::max()) {
    std::optional<int32_t> Row =
        B.fill() ? 0 : continuing(Prev.Src, B.Src, Prev.Rows, Prev.SrcRow);
    if (Row && (B.Rows == 1 || B.SrcRow == *Row) &&
        (Prev.Len == 1 || B.SrcStep == Prev.SrcStep)) {
      Prev.SrcRow = *Row;
      Prev.Rows += B.Rows;
      return true;
    }
  }
  return false;
}

void WalkPlan::finish(const std::vector<Totals> &Parts) {
  for (const Totals &T : Parts) {
    Local += T.Local;
    Hops += T.Hops;
  }
  Walk.reset();
}
