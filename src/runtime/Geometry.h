//===- runtime/Geometry.h - Blockwise layout of shapes to PEs -----*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A geometry is the CM runtime's layout of one array shape onto the PE
/// grid: a factorization of the machine's PEs across the array dimensions
/// plus the per-PE subgrid ("the parallel computation over each block is
/// simulated in-processor by a virtual subgrid loop", paper Section 3.3).
/// Layout is blockwise, matching the prototype's use of the CM runtime
/// system default.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_RUNTIME_GEOMETRY_H
#define F90Y_RUNTIME_GEOMETRY_H

#include <cstdint>
#include <string>
#include <vector>

namespace f90y {
namespace runtime {

/// Layout of one shape onto the PE grid.
struct Geometry {
  std::vector<int64_t> Extents;   ///< Size of each dimension.
  std::vector<int64_t> Los;       ///< Declared lower bound of each dimension.
  std::vector<int64_t> Grid;      ///< PEs along each dimension.
  std::vector<int64_t> Sub;       ///< Subgrid elements per PE per dimension.
  std::vector<int64_t> PEStride;  ///< PE-number step of one block per dim.
  std::vector<int64_t> OffStride; ///< Subgrid-offset step of one element.
  int64_t GridPEs = 1;            ///< Product of Grid (PEs actually used).
  int64_t SubgridElems = 1;       ///< Product of Sub (the VP ratio).
  int64_t PaddedSubgrid = 1;      ///< SubgridElems rounded up to the width.

  unsigned rank() const { return static_cast<unsigned>(Extents.size()); }

  int64_t totalElements() const {
    int64_t N = 1;
    for (int64_t E : Extents)
      N *= E;
    return N;
  }

  /// Builds the blockwise layout of \p Extents over at most \p MachinePEs
  /// processing elements, padding subgrids to multiples of \p Width.
  static Geometry layout(std::vector<int64_t> Extents,
                         std::vector<int64_t> Los, int64_t MachinePEs,
                         unsigned Width);

  /// Maps a zero-based global coordinate to (PE, subgrid offset).
  void locate(const std::vector<int64_t> &Coord, int64_t &PE,
              int64_t &Off) const;

  /// Inverse map: reconstructs the zero-based coordinate of (PE, Off).
  /// Returns false for padding positions (offsets past the subgrid or
  /// block positions outside the array).
  bool coordOf(int64_t PE, int64_t Off, std::vector<int64_t> &Coord) const;

  /// Torus hop distance between two PEs along dimension \p D.
  int64_t hopDistance(int64_t FromPE, int64_t ToPE, size_t D) const;

  /// A stable identity string ("128x64/g:16x128/s:8x1").
  std::string signature() const;
};

} // namespace runtime
} // namespace f90y

#endif // F90Y_RUNTIME_GEOMETRY_H
