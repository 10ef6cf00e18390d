//===- runtime/RegionWalk.cpp - Run-at-a-time region walks ----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/RegionWalk.h"

#include "support/RtStatus.h"

#include <algorithm>
#include <tuple>

using namespace f90y;
using namespace f90y::runtime;

namespace {

/// Ceiling of A / B for B > 0 (runs mostly step by one).
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

void RegionWalk::source(const std::vector<int64_t> &P, int64_t Left,
                        Run &R) const {
  const Geometry &SG = *Src.Geo;
  const int Last = static_cast<int>(P.size()) - 1;
  R.Len = Left;
  R.Fill = false;
  R.SrcPE = R.SrcOff = R.SrcStep = 0;
  for (size_t J = 0; J < Src.Dims.size(); ++J) {
    const SectionDim &S = Src.Dims[J];
    const int F = From[J];
    const int64_t N = SG.Extents[J];
    const int64_t Step = F == Last ? S.Stride : 0;
    int64_t Y = S.Start + (F < 0 ? 0 : S.Stride * P[static_cast<size_t>(F)]) +
                Shift[J];
    if (!EndOff && (Y < 0 || Y >= N))
      Y = (Y % N + N) % N;
    if (Y < 0 || Y >= N) { // Fill until the coordinate comes back in.
      R.Fill = true;
      if (Step > 0 && Y < 0)
        R.Len = std::min(R.Len, ceilDiv(-Y, Step));
      else if (Step < 0 && Y >= N)
        R.Len = std::min(R.Len, ceilDiv(Y - N + 1, -Step));
      continue;
    }
    // Stay inside the source block that holds Y.
    const int64_t Block = Y / SG.Sub[J], In = Y % SG.Sub[J];
    if (Step > 0)
      R.Len = std::min(
          R.Len, ceilDiv(std::min((Block + 1) * SG.Sub[J], N) - Y, Step));
    else if (Step < 0)
      R.Len = std::min(R.Len, In / -Step + 1);
    R.SrcPE += Block * SG.PEStride[J];
    R.SrcOff += In * SG.OffStride[J];
    R.SrcStep += Step * SG.OffStride[J];
  }
}

void RegionWalk::forEachRun(int64_t BeginPE, int64_t EndPE,
                            const std::function<void(const Run &)> &Fn) const {
  const Geometry &DG = *Dst.Geo;
  const size_t Rank = Dst.Dims.size(), Last = Rank - 1;
  std::vector<int64_t> Lo(Rank), Hi(Rank), P(Rank);
  Run R;
  R.Pos = P.data();
  R.DstStep = Dst.Dims[Last].Stride;
  for (R.DstPE = BeginPE; R.DstPE < EndPE; ++R.DstPE) {
    // The region's positions inside this PE's block, per dimension.
    bool Empty = false;
    for (size_t D = 0; D < Rank && !Empty; ++D) {
      int64_t BLo = R.DstPE / DG.PEStride[D] % DG.Grid[D] * DG.Sub[D];
      positionsIn(Dst.Dims[D], BLo,
                  std::min(BLo + DG.Sub[D], DG.Extents[D]), Lo[D], Hi[D]);
      Empty = Lo[D] >= Hi[D];
    }
    if (Empty)
      continue;
    std::copy(Lo.begin(), Lo.end(), P.begin());
    for (bool More = true; More;) {
      int64_t RowOff = 0;
      for (size_t D = 0; D < Rank; ++D)
        RowOff += (Dst.Dims[D].Start + Dst.Dims[D].Stride * P[D]) %
                  DG.Sub[D] * DG.OffStride[D];
      for (R.DstOff = RowOff; P[Last] < Hi[Last];
           P[Last] += R.Len, R.DstOff += R.Len * R.DstStep) {
        source(P, Hi[Last] - P[Last], R);
        Fn(R);
      }
      // Next row: step the outer dimensions' odometer; D wraps past 0
      // once every row is done.
      P[Last] = Lo[Last];
      size_t D = Last;
      while (D-- > 0 && ++P[D] == Hi[D])
        P[D] = Lo[D];
      More = D < Last;
    }
  }
}
