//===- tests/parallel_exec_test.cpp - serial vs parallel equivalence --------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism contract of the host thread pool: every sample program
/// run at --threads=8 must produce the exact output and cycle ledger of
/// the --threads=1 serial run. Chunk decomposition depends only on
/// problem size, and per-chunk partials are combined in chunk order, so
/// this holds bitwise, not just approximately. The invariance harness
/// checks it under f90yc's default and the sync comm model.
///
//===----------------------------------------------------------------------===//

#include "invariance/Invariance.h"

#include <gtest/gtest.h>

using namespace f90y::invariance;

namespace {

class ParallelExecTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ParallelExecTest, ThreadCountAndEngineDoNotChangeResults) {
  // Enough PEs that every op spans many chunks.
  Matrix M;
  M.Base = {{"-pes=256"}};
  M.Model = {Leg{}, Leg{{"-comm=sync"}}};
  EXPECT_EQ(check(sampleProgram(GetParam()), M).Divergence, "");
}

INSTANTIATE_TEST_SUITE_P(SamplePrograms, ParallelExecTest,
                         ::testing::Values("fig10.f90", "subroutines.f90",
                                           "swe.f90"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           std::string Name = I.param;
                           return Name.substr(0, Name.find('.'));
                         });

} // namespace
