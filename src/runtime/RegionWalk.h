//===- runtime/RegionWalk.h - Run-at-a-time region walks ----------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one data-movement primitive under every grid-comm op. A walk
/// visits a destination region one run at a time: a run is a stretch of
/// one destination PE's subgrid whose sources are evenly spaced slots of
/// one source PE's subgrid, or else boundary fill. This is the NEWS model
/// of the CM runtime (paper Section 5.2), where a shift moves whole
/// sub-block edges between neighbouring PEs: a comm op moves its data and
/// counts its local elements, fills and wire hops once per run, never
/// once per element.
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

/// One run of a walk: Len destination slots DstOff + i * DstStep of PE
/// DstPE whose sources are the slots SrcOff + i * SrcStep of PE SrcPE, or,
/// when Fill is set, lie past the source array's edge.
struct Run {
  int64_t DstPE = 0, DstOff = 0, DstStep = 0;
  int64_t SrcPE = 0, SrcOff = 0, SrcStep = 0;
  int64_t Len = 0;
  bool Fill = false;
  const int64_t *Pos = nullptr; ///< Walk position of the run's first slot.
};

/// Visits a destination region one run at a time, PE by PE and, within a
/// PE, in row-major position order (increasing offsets for a whole
/// array). The walk position p ranges over the destination region's
/// counts; source dimension j sits at Start[j] + Stride[j] * p[From[j]],
/// or at Start[j] when From[j] < 0, displaced by Shift[j].
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

  /// Calls \p Fn for every run in destination PEs [BeginPE, EndPE).
  void forEachRun(int64_t BeginPE, int64_t EndPE,
                  const std::function<void(const Run &)> &Fn) const;

private:
  Region Dst, Src;
  std::vector<int> From;
  std::vector<int64_t> Shift;
  bool EndOff = false;

  /// Fills \p R's source and length for the run starting at \p P, at most
  /// \p Left slots long.
  void source(const std::vector<int64_t> &P, int64_t Left, Run &R) const;
};

} // namespace runtime
} // namespace f90y

#endif // F90Y_RUNTIME_REGIONWALK_H
