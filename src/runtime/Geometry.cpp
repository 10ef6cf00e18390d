//===- runtime/Geometry.cpp - Blockwise layout of shapes to PEs -------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Geometry.h"

#include "support/RtStatus.h"

#include <algorithm>

using namespace f90y;
using namespace f90y::runtime;

Geometry Geometry::layout(std::vector<int64_t> Extents,
                          std::vector<int64_t> Los, int64_t MachinePEs,
                          unsigned Width) {
  F90Y_CHECK(!Extents.empty(), "geometry needs at least one dimension");
  Geometry G;
  G.Extents = std::move(Extents);
  G.Los = std::move(Los);
  G.Grid.assign(G.Extents.size(), 1);

  // Greedy power-of-two factorization: repeatedly split the dimension with
  // the largest per-PE block, while PEs remain.
  int64_t Used = 1;
  while (Used * 2 <= MachinePEs) {
    int BestDim = -1;
    int64_t BestBlock = 1; // Only split blocks larger than one element.
    for (size_t D = 0; D < G.Extents.size(); ++D) {
      int64_t Block = (G.Extents[D] + G.Grid[D] - 1) / G.Grid[D];
      if (Block > BestBlock && G.Grid[D] * 2 <= G.Extents[D]) {
        BestBlock = Block;
        BestDim = static_cast<int>(D);
      }
    }
    if (BestDim < 0)
      break;
    G.Grid[static_cast<size_t>(BestDim)] *= 2;
    Used *= 2;
  }

  G.GridPEs = 1;
  G.SubgridElems = 1;
  G.Sub.resize(G.Extents.size());
  G.PEStride.resize(G.Extents.size());
  G.OffStride.resize(G.Extents.size());
  for (size_t D = G.Extents.size(); D-- > 0;) {
    G.PEStride[D] = G.GridPEs;
    G.OffStride[D] = G.SubgridElems;
    G.GridPEs *= G.Grid[D];
    G.Sub[D] = (G.Extents[D] + G.Grid[D] - 1) / G.Grid[D];
    G.SubgridElems *= G.Sub[D];
  }
  G.PaddedSubgrid =
      (G.SubgridElems + Width - 1) / Width * static_cast<int64_t>(Width);
  return G;
}

bool Geometry::dense() const {
  if (PaddedSubgrid != SubgridElems)
    return false;
  for (size_t D = 0; D < Extents.size(); ++D)
    if (Grid[D] * Sub[D] != Extents[D])
      return false;
  return true;
}

void Geometry::locate(const std::vector<int64_t> &Coord, int64_t &PE,
                      int64_t &Off) const {
  PE = Off = 0;
  for (size_t D = 0; D < Extents.size(); ++D) {
    PE += Coord[D] / Sub[D] * PEStride[D];
    Off += Coord[D] % Sub[D] * OffStride[D];
  }
}

bool Geometry::coordOf(int64_t PE, int64_t Off,
                       std::vector<int64_t> &Coord) const {
  if (Off >= SubgridElems)
    return false; // Vector-width padding.
  Coord.resize(Extents.size());
  for (size_t D = 0; D < Extents.size(); ++D) {
    Coord[D] = PE / PEStride[D] % Grid[D] * Sub[D] +
               Off / OffStride[D] % Sub[D];
    if (Coord[D] >= Extents[D])
      return false; // Block padding at the array edge.
  }
  return true;
}

int64_t Geometry::hopDistance(int64_t FromPE, int64_t ToPE, size_t D) const {
  int64_t N = Grid[D];
  int64_t Fwd = ((ToPE / PEStride[D] - FromPE / PEStride[D]) % N + N) % N;
  return std::min(Fwd, N - Fwd);
}

std::string Geometry::signature() const {
  auto JoinDims = [](const std::vector<int64_t> &V) {
    std::string S;
    for (size_t I = 0; I < V.size(); ++I) {
      if (I)
        S += 'x';
      S += std::to_string(V[I]);
    }
    return S;
  };
  return JoinDims(Extents) + "/g:" + JoinDims(Grid) + "/s:" + JoinDims(Sub);
}
