//===- tests/invariance_test.cpp - the generated-program budget -----------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The invariance harness over a fixed budget of generated programs: each
/// seed's program runs under every model leg crossed with every host leg,
/// untraced and killed/restored, on one machine leg, and against the NIR
/// interpreter. A divergence is reported with its program shrunk to the
/// blocks that still show it. Also: every knob of driver::knobs() has
/// exactly one class, and the budget reaches every NIR pass.
///
//===----------------------------------------------------------------------===//

#include "invariance/Generator.h"
#include "invariance/Invariance.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>

using namespace f90y;
using namespace f90y::invariance;

namespace {

/// The budget: Shards ctest entries of PerShard seeds each.
constexpr unsigned Shards = 16, PerShard = 8;

/// Seed \p Seed's machine leg, every model leg, every host variant, and
/// the oracle.
Matrix budgetMatrix(unsigned Seed) {
  const std::vector<Leg> Machines = machineLegs();
  Matrix M;
  M.Base = Machines[Seed % Machines.size()];
  M.Model = modelLegs();
  M.Oracle = 1e-9;
  return M;
}

class InvarianceBudget : public ::testing::TestWithParam<unsigned> {};

TEST_P(InvarianceBudget, GeneratedProgramsHoldTheContract) {
  for (unsigned Seed = GetParam() * PerShard;
       Seed < (GetParam() + 1) * PerShard; ++Seed)
    EXPECT_EQ(checkGenerated(Seed, budgetMatrix(Seed)), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvarianceBudget,
                         ::testing::Range(0u, Shards));

TEST(InvarianceAxes, EveryKnobHasOneClass) {
  for (const driver::Knob &K : driver::knobs()) {
    unsigned Rows = 0;
    for (const Axis &A : axes())
      Rows += std::string(A.Knob) == K.Name;
    EXPECT_EQ(Rows, 1u) << "-" << K.Name
                        << " needs one row in invariance::axes()";
  }
  for (const Axis &A : axes()) {
    const bool Axial = A.Class != AxisClass::None;
    EXPECT_EQ(Axial, *A.Legs != 0) << A.Knob;
    EXPECT_EQ(Axial, *A.Why == 0) << A.Knob;
  }
}

TEST(InvarianceBudget, ReachesEveryPass) {
  // The pipeline order; a pass changes a program when its clause count
  // moves or its phase counts differ from the previous pass's.
  const char *Passes[] = {"extract-comm", "mask-sections", "fuse",
                          "layout",       "block-domains", "comm-schedule"};
  const char *Phases[] = {"comp_phases", "comm_phases", "host_phases"};
  std::map<std::string, unsigned> Changed;
  double Fused = 0, Localized = 0, Coalesced = 0;
  unsigned Restored = 0, Programs = Shards * PerShard;
  for (unsigned Seed = 0; Seed < Programs; ++Seed) {
    Matrix M;
    M.Base = budgetMatrix(Seed).Base;
    const Result R = check(generate(Seed).source(), M);
    ASSERT_EQ(R.Divergence, "") << "seed " << Seed;
    const Record &Ref = R.Runs.front();
    auto Gauge = [&](const char *Pass, const char *Name) {
      return Ref.metric(std::string("pass.") + Pass + "." + Name);
    };
    for (size_t I = 0; I < std::size(Passes); ++I) {
      bool Moved = Gauge(Passes[I], "move_clause_delta") != 0;
      for (const char *Phase : Phases)
        Moved |= I > 0 &&
                 Gauge(Passes[I], Phase) != Gauge(Passes[I - 1], Phase);
      Changed[Passes[I]] += Moved;
    }
    Fused += Ref.metric("fuse.temps_eliminated");
    Localized += Ref.metric("layout.comm_moves_localized");
    Coalesced += Ref.metric("comm.coalesced");
    Restored += R.Restored;
  }
  for (const char *Pass : Passes)
    EXPECT_GT(Changed[Pass], 0u) << Pass;
  EXPECT_GT(Fused, 0.0);
  EXPECT_GT(Localized, 0.0);
  EXPECT_GT(Coalesced, 0.0);
  // Each restored program restores once per host leg.
  EXPECT_GE(4 * Restored, Programs * hostLegs().size());
  std::printf("over %u programs: %.0f temporaries fused, %.0f exchanges "
              "localized, %.0f shifts coalesced, %u kill/restore variants\n",
              Programs, Fused, Localized, Coalesced, Restored);
}

} // namespace
