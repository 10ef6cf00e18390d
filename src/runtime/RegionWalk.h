//===- runtime/RegionWalk.h - Block-at-a-time region walks ------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one data-movement primitive under every grid-comm op. A walk
/// visits a destination region one block at a time: a block is a
/// rectangle of one destination PE's subgrid, some slots along the last
/// dimension by some rows of the second-last, whose sources are evenly
/// spaced slots and rows of one source PE's subgrid, or else boundary
/// fill. This is the NEWS model of the CM runtime (paper Section 5.2),
/// where a shift moves whole sub-blocks between neighbouring PEs: a comm
/// op moves its data and counts its local elements, fills and wire hops
/// once per block, never once per element.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_RUNTIME_REGIONWALK_H
#define F90Y_RUNTIME_REGIONWALK_H

#include "runtime/Geometry.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace f90y {
namespace runtime {

/// One dimension of a strided region: zero-based start, stride, count.
struct SectionDim {
  int64_t Start = 0;
  int64_t Stride = 1;
  int64_t Count = 0;
};

/// A strided box of one geometry's coordinates.
struct Region {
  const Geometry *Geo = nullptr;
  std::vector<SectionDim> Dims;

  /// The whole array.
  explicit Region(const Geometry &G);
  /// A section; it must lie inside the array.
  Region(const Geometry &G, std::vector<SectionDim> Dims);
};

/// One block of a walk: Rows rows of Len destination slots of PE DstPE,
/// slot i of row r at DstOff + r * DstRow + i * DstStep, whose sources are
/// the slots SrcOff + r * SrcRow + i * SrcStep of PE SrcPE or, when Fill is
/// set, lie past the source array's edge. Rows steps the second-last walk
/// dimension (a rank-1 walk has one row per block); visit a block row by
/// row.
struct Run {
  int64_t DstPE = 0, DstOff = 0, DstStep = 0, DstRow = 0;
  int64_t SrcPE = 0, SrcOff = 0, SrcStep = 0, SrcRow = 0;
  int64_t Len = 0, Rows = 1;
  bool Fill = false;
  const int64_t *Pos = nullptr; ///< Walk position of the block's first slot.
};

/// Visits a destination region one block at a time, PE by PE. Within a
/// PE the walk goes band by band, a band being the rows of one block, in
/// row-major position order; within a band, block by block along the last
/// dimension. An identity walk has one block per PE, whose rows are
/// visited in row-major order. The walk position p ranges over the
/// destination region's counts; source dimension j sits at
/// Start[j] + Stride[j] * p[From[j]], or at Start[j] when From[j] < 0,
/// displaced by Shift[j].
///
/// Construction checks that each source dimension has the count of the
/// walk dimension it follows (a Region checks that it lies inside its
/// array).
class RegionWalk {
public:
  /// An empty \p From is the identity. Shifted coordinates past the
  /// array's edge are boundary fill under \p EndOff and wrap otherwise.
  RegionWalk(Region Dst, Region Src, std::vector<int> From,
             std::vector<int64_t> Shift = {}, bool EndOff = false);

  const Geometry &dst() const { return *Dst.Geo; }

  /// Calls \p Fn for every block in destination PEs [BeginPE, EndPE).
  void forEachRun(int64_t BeginPE, int64_t EndPE,
                  const std::function<void(const Run &)> &Fn) const;

private:
  Region Dst, Src;
  std::vector<int> From;
  std::vector<int64_t> Shift;
  bool EndOff = false;

  /// Fills \p R's source for the block starting at \p P and bounds its
  /// Len to at most \p Left and its Rows to at most R.Rows, so that every
  /// slot keeps its source block or stays fill. The source dimensions that
  /// follow the second-last walk dimension bound Rows; they do not move
  /// along a band, so Rows, bounded at the band's first block, holds for
  /// the whole band.
  void source(const std::vector<int64_t> &P, int64_t Left, Run &R) const;
};

} // namespace runtime
} // namespace f90y

#endif // F90Y_RUNTIME_REGIONWALK_H
