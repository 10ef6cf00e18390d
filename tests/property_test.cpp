//===- tests/property_test.cpp - parameterized property sweeps --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based sweeps (gtest TEST_P):
///  - geometry layout/locate/coordOf round-trips over many shapes and
///    machine sizes;
///  - shift algebra on the runtime (cshift inverse, composition,
///    full-cycle identity) across dims, distances, and machine sizes;
///  - the compile-and-run-equals-interpret property over the invariance
///    harness's generated programs, across profiles and machines;
///  - transformation idempotence (optimizing twice = optimizing once).
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "invariance/Generator.h"
#include "nir/Equality.h"
#include "nir/Printer.h"
#include "runtime/CmRuntime.h"
#include "transform/Transforms.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::driver;
using namespace f90y::runtime;

namespace {

//===--------------------------------------------------------------------===//
// Geometry round-trip
//===--------------------------------------------------------------------===//

struct GeometryCase {
  std::vector<int64_t> Extents;
  int64_t PEs;
};

// gtest_discover_tests names each case after its printed parameter, so
// the printers below spell a stable name ("e13x9_pes8") where gtest's
// default would dump the struct's bytes: heap addresses and padding.
void PrintTo(const GeometryCase &C, std::ostream *OS) {
  for (size_t D = 0; D < C.Extents.size(); ++D)
    *OS << (D ? "x" : "e") << C.Extents[D];
  *OS << "_pes" << C.PEs;
}

class GeometryProperty : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(GeometryProperty, LocateCoordOfRoundTrip) {
  const GeometryCase &C = GetParam();
  Geometry G = Geometry::layout(C.Extents,
                                std::vector<int64_t>(C.Extents.size(), 1),
                                C.PEs, 4);
  // Structure invariants.
  EXPECT_LE(G.GridPEs, C.PEs);
  int64_t Covered = 1;
  for (size_t D = 0; D < C.Extents.size(); ++D) {
    EXPECT_GE(G.Sub[D] * G.Grid[D], C.Extents[D]);
    Covered *= G.Sub[D] * G.Grid[D];
  }
  EXPECT_GE(Covered, G.totalElements());
  EXPECT_EQ(G.PaddedSubgrid % 4, 0);

  // Every element has a unique home, and the maps invert each other.
  std::set<std::pair<int64_t, int64_t>> Homes;
  std::vector<int64_t> Coord(C.Extents.size(), 0), Back;
  bool Done = false;
  while (!Done) {
    int64_t PE, Off;
    G.locate(Coord, PE, Off);
    ASSERT_GE(PE, 0);
    ASSERT_LT(PE, G.GridPEs);
    ASSERT_GE(Off, 0);
    ASSERT_LT(Off, G.SubgridElems);
    ASSERT_TRUE(Homes.insert({PE, Off}).second)
        << "two elements share PE " << PE << " offset " << Off;
    ASSERT_TRUE(G.coordOf(PE, Off, Back));
    ASSERT_EQ(Back, Coord);
    size_t K = Coord.size();
    Done = true;
    while (K-- > 0) {
      if (++Coord[K] < C.Extents[K]) {
        Done = false;
        break;
      }
      Coord[K] = 0;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(Homes.size()), G.totalElements());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometryProperty,
    ::testing::Values(GeometryCase{{7}, 4}, GeometryCase{{64}, 64},
                      GeometryCase{{64}, 2048}, GeometryCase{{13, 9}, 8},
                      GeometryCase{{16, 16}, 16},
                      GeometryCase{{33, 65}, 32},
                      GeometryCase{{128, 64}, 2048},
                      GeometryCase{{5, 7, 3}, 16},
                      GeometryCase{{8, 8, 8}, 64},
                      GeometryCase{{100}, 1}));

//===--------------------------------------------------------------------===//
// Shift algebra on the runtime
//===--------------------------------------------------------------------===//

struct ShiftCase {
  int64_t N;
  unsigned Dim;
  int64_t Shift;
  unsigned PEs;
};

void PrintTo(const ShiftCase &C, std::ostream *OS) {
  *OS << "n" << C.N << "_dim" << C.Dim << "_by" << C.Shift << "_pes"
      << C.PEs;
}

class ShiftProperty : public ::testing::TestWithParam<ShiftCase> {};

TEST_P(ShiftProperty, CShiftInverseAndFullCycle) {
  const ShiftCase &C = GetParam();
  cm2::CostModel Costs;
  Costs.NumPEs = C.PEs;
  CmRuntime RT(Costs);
  const Geometry *G = RT.getGeometry({C.N, C.N}, {1, 1});
  int A = RT.allocField(G, ElemKind::Real);
  int B = RT.allocField(G, ElemKind::Real);
  int D = RT.allocField(G, ElemKind::Real);

  std::vector<int64_t> Coord(2);
  for (Coord[0] = 0; Coord[0] < C.N; ++Coord[0])
    for (Coord[1] = 0; Coord[1] < C.N; ++Coord[1])
      RT.writeElement(A, Coord,
                      static_cast<double>(Coord[0] * 1000 + Coord[1]));

  // Inverse: cshift(cshift(A, s), -s) == A.
  RT.cshift(B, A, C.Dim, C.Shift);
  RT.cshift(D, B, C.Dim, -C.Shift);
  for (Coord[0] = 0; Coord[0] < C.N; ++Coord[0])
    for (Coord[1] = 0; Coord[1] < C.N; ++Coord[1])
      ASSERT_DOUBLE_EQ(RT.readElement(D, Coord), RT.readElement(A, Coord));

  // Full cycle: shifting by N is the identity.
  RT.cshift(B, A, C.Dim, C.N);
  for (Coord[0] = 0; Coord[0] < C.N; ++Coord[0])
    for (Coord[1] = 0; Coord[1] < C.N; ++Coord[1])
      ASSERT_DOUBLE_EQ(RT.readElement(B, Coord), RT.readElement(A, Coord));

  // Composition: shift(s1) then shift(s2) == shift(s1+s2).
  RT.cshift(B, A, C.Dim, C.Shift);
  RT.cshift(D, B, C.Dim, 3);
  RT.cshift(B, A, C.Dim, C.Shift + 3);
  for (Coord[0] = 0; Coord[0] < C.N; ++Coord[0])
    for (Coord[1] = 0; Coord[1] < C.N; ++Coord[1])
      ASSERT_DOUBLE_EQ(RT.readElement(B, Coord), RT.readElement(D, Coord));
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, ShiftProperty,
    ::testing::Values(ShiftCase{8, 1, 1, 4}, ShiftCase{8, 2, 1, 4},
                      ShiftCase{8, 1, 3, 16}, ShiftCase{8, 2, 5, 16},
                      ShiftCase{12, 1, 7, 8}, ShiftCase{12, 2, 11, 8},
                      ShiftCase{16, 1, 15, 64}, ShiftCase{16, 2, 2, 1},
                      ShiftCase{9, 1, 4, 32}, ShiftCase{9, 2, 8, 2}));

//===--------------------------------------------------------------------===//
// Compile-and-run equals interpret, over a generated program family
//===--------------------------------------------------------------------===//

struct DiffCase {
  unsigned Seed;
  Profile P;
  unsigned PEs;
};

void PrintTo(const DiffCase &C, std::ostream *OS) {
  const char *Profiles[] = {"f90y", "cmf", "naive"}; // Enum order.
  *OS << "seed" << C.Seed << "_" << Profiles[static_cast<int>(C.P)]
      << "_pes" << C.PEs;
}

class CompiledEqualsInterpreted
    : public ::testing::TestWithParam<DiffCase> {};

TEST_P(CompiledEqualsInterpreted, OnGeneratedPrograms) {
  const DiffCase &C = GetParam();
  const char *Profiles[] = {"f90y", "cmf", "naive"}; // Enum order.
  invariance::Matrix M;
  M.Base = {{std::string("-profile=") + Profiles[static_cast<int>(C.P)],
             "-pes=" + std::to_string(C.PEs), "-comm=sync"}};
  M.Host = false;
  M.Oracle = 1e-9;
  EXPECT_EQ(invariance::checkGenerated(C.Seed, M), "");
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CompiledEqualsInterpreted,
    ::testing::Values(DiffCase{1, Profile::F90Y, 8},
                      DiffCase{2, Profile::F90Y, 16},
                      DiffCase{3, Profile::F90Y, 1},
                      DiffCase{4, Profile::CMFStyle, 8},
                      DiffCase{5, Profile::CMFStyle, 64},
                      DiffCase{6, Profile::Naive, 8},
                      DiffCase{7, Profile::F90Y, 4},
                      DiffCase{8, Profile::Naive, 16},
                      DiffCase{9, Profile::F90Y, 32},
                      DiffCase{10, Profile::CMFStyle, 2},
                      DiffCase{11, Profile::F90Y, 128},
                      DiffCase{12, Profile::Naive, 1}));

//===--------------------------------------------------------------------===//
// Transformation idempotence
//===--------------------------------------------------------------------===//

class TransformIdempotence : public ::testing::TestWithParam<unsigned> {};

TEST_P(TransformIdempotence, OptimizeTwiceEqualsOnce) {
  std::string Src = invariance::generate(GetParam()).source();
  Compilation C(CompileOptions::forProfile(Profile::F90Y));
  ASSERT_TRUE(C.compile(Src)) << C.diags().str();
  DiagnosticEngine Diags;
  const nir::ProgramImp *Once = C.artifacts().OptimizedNIR;
  const nir::ProgramImp *Twice =
      transform::optimize(Once, C.nirContext(), Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_TRUE(nir::impsEqual(Once, Twice))
      << "first:\n"
      << nir::printImp(Once) << "\nsecond:\n"
      << nir::printImp(Twice);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformIdempotence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

} // namespace
