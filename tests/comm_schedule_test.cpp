//===- tests/comm_schedule_test.cpp - comm scheduling pass + overlap mode ----===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The communication scheduling pass (hoist + coalesce) and the f90yc
/// -comm=overlap execution mode built on it. The contract under test:
/// scheduling and split-phase execution change *when* exchanges run and
/// what they cost, never what the program computes - output and fields
/// are bit-identical to the strict synchronous model at every thread count,
/// and under fault injection.
///
//===----------------------------------------------------------------------===//

#include "driver/Workloads.h"
#include "host/Printer.h"
#include "invariance/Generator.h"
#include "nir/Clause.h"
#include "nir/Rewrite.h"
#include "transform/Phases.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::invariance;

namespace {

const Leg Base{{"-pes=64"}};
const Leg Sync{{"-comm=sync"}}, Overlap{{"-comm=overlap"}};

/// \p Src's printed host program, compiled with or without the
/// comm-schedule pass.
std::string hostListing(const std::string &Src, const Leg &Comm) {
  std::string Error;
  auto C = compile(Src, Base + Comm, Error);
  EXPECT_TRUE(C) << Error;
  return C ? host::printHostProgram(C->artifacts().Compiled.Program) : "";
}

/// -comm=sync against -comm=overlap (and \p More) under the Model
/// contract.
Result syncVersusOverlap(const std::string &Src, bool Host,
                         std::vector<Leg> More = {}) {
  Matrix M;
  M.Base = Base;
  M.Model = {Sync, Overlap};
  M.Model.insert(M.Model.end(), More.begin(), More.end());
  M.Host = Host;
  return check(Src, M);
}

/// A stencil with four same-axis shifts of one field and an independent
/// different-shape computation for the exchanges to hide under.
const char *stencilSource() {
  return "program p\n"
         "integer i\n"
         "real u(64), a(64), b(64), c(64), d(64), q(48,48), r(48,48)\n"
         "u = 3.0\n"
         "q = 0.5\n"
         "do i = 1, 4\n"
         "  a = cshift(u, 1, 1)\n"
         "  b = cshift(u, -1, 1)\n"
         "  c = cshift(u, 2, 1)\n"
         "  d = cshift(u, -2, 1)\n"
         "  r = q*q + 2.0*q + q/3.0\n"
         "  u = 0.25*(a + b + c + d) + 0.01\n"
         "  q = r - 0.25\n"
         "end do\n"
         "print *, sum(u)\n"
         "print *, sum(q)\n"
         "end\n";
}

TEST(CommScheduleTest, PassCoalescesShiftsIntoMultiShift) {
  // The four same-source same-axis shifts become one multi-shift exchange.
  std::string IR = hostListing(stencilSource(), Overlap);
  EXPECT_NE(IR.find("cm_mshift"), std::string::npos) << IR;
}

/// Appends the clause count of each ShiftStmt under \p S, in program
/// order.
void shiftStmtClauses(const host::HostStmt *S, std::vector<size_t> &Out) {
  if (!S)
    return;
  switch (S->getKind()) {
  case host::HostStmt::Kind::Seq:
    for (const auto &Sub : cast<host::SeqStmt>(S)->stmts())
      shiftStmtClauses(Sub.get(), Out);
    return;
  case host::HostStmt::Kind::AllocScope:
    shiftStmtClauses(cast<host::AllocScopeStmt>(S)->body(), Out);
    return;
  case host::HostStmt::Kind::If:
    shiftStmtClauses(cast<host::IfStmt>(S)->thenStmt(), Out);
    shiftStmtClauses(cast<host::IfStmt>(S)->elseStmt(), Out);
    return;
  case host::HostStmt::Kind::While:
    shiftStmtClauses(cast<host::WhileStmt>(S)->body(), Out);
    return;
  case host::HostStmt::Kind::SerialDo:
    shiftStmtClauses(cast<host::SerialDoStmt>(S)->body(), Out);
    return;
  case host::HostStmt::Kind::ParallelLoop:
    shiftStmtClauses(cast<host::ParallelLoopStmt>(S)->body(), Out);
    return;
  case host::HostStmt::Kind::Shift:
    Out.push_back(cast<host::ShiftStmt>(S)->clauses().size());
    return;
  default:
    return;
  }
}

TEST(CommScheduleTest, EachShiftMoveIsOneShiftStmt) {
  // The back end decides no coalescing of its own. comm-schedule merges
  // communication MOVEs only into one exchange (nir::matchExchange); each
  // such k-clause MOVE compiles to exactly one k-clause ShiftStmt, and each
  // one-clause shift MOVE to a one-clause ShiftStmt, in program order.
  std::vector<std::string> Sources = {
      stencilSource(),
      driver::sweSource(16, 2),
      driver::sweTempsSource(16, 2),
      driver::figure9Source(),
      driver::figure10Source(),
      driver::figure12Source(16),
      driver::heatSource(16, 2),
      driver::misalignedSweSource(16, 2)};
  for (const char *P : {"fig10.f90", "mswe.f90", "subroutines.f90", "swe.f90"})
    Sources.push_back(sampleProgram(P));
  for (unsigned Seed = 0; Seed < 256; ++Seed)
    Sources.push_back(generate(Seed).source());
  size_t Merged = 0, Single = 0;
  for (const std::string &Src : Sources)
    for (const char *Profile : {"f90y", "cmf", "naive"})
      for (const char *Comm : {"sync", "overlap"})
        for (const char *Layout : {"infer", "canonical"}) {
          const Leg L = Base + Leg{{std::string("-profile=") + Profile,
                                    std::string("-comm=") + Comm,
                                    std::string("-layout=") + Layout}};
          std::string Error;
          auto C = compile(Src, L, Error);
          ASSERT_TRUE(C) << L.str() << "\n" << Error << "\n" << Src;
          std::vector<size_t> Moves, Stmts;
          nir::forEachImp(C->artifacts().OptimizedNIR, [&](const nir::Imp *I) {
            const auto *M = dyn_cast<nir::MoveImp>(I);
            if (!M || transform::classifyAction(M) !=
                          transform::PhaseKind::Communication)
              return;
            const std::vector<nir::MoveClause> &Clauses = M->getClauses();
            if (Clauses.size() > 1) {
              EXPECT_TRUE(nir::matchExchange(Clauses)) << L.str() << "\n"
                                                       << Src;
              Moves.push_back(Clauses.size());
              ++Merged;
            } else if (nir::matchShift(Clauses[0])) {
              Moves.push_back(1);
              ++Single;
            }
          });
          shiftStmtClauses(C->artifacts().Compiled.Program.Body.get(), Stmts);
          EXPECT_EQ(Moves, Stmts) << L.str() << "\n" << Src;
        }
  // The matrix reaches both kinds.
  EXPECT_GT(Merged, 0u);
  EXPECT_GT(Single, 0u);
}

TEST(CommScheduleTest, SyncPipelineNeverSeesMultiShift) {
  std::string IR = hostListing(stencilSource(), Sync);
  EXPECT_EQ(IR.find("cm_mshift"), std::string::npos) << IR;
}

TEST(CommScheduleTest, OverlapModeIsBitIdenticalToSyncAcrossThreads) {
  // The full -comm=sync vs -comm=overlap comparison, each under every
  // host leg: same printed output and fields, same node work, cheaper or
  // equal total time with overlap.
  Result R = syncVersusOverlap(stencilSource(), /*Host=*/true);
  ASSERT_EQ(R.Divergence, "");
  const runtime::CycleLedger &S = R.Runs[0].Report.Ledger,
                             &O = R.Runs[1].Report.Ledger;
  EXPECT_EQ(S.Flops, O.Flops);
  EXPECT_EQ(S.NodeCycles, O.NodeCycles);
  EXPECT_LE(O.total(), S.total());
  EXPECT_GT(O.OverlappedCycles, 0.0);
  EXPECT_LE(O.OverlappedCycles, O.CommCycles);
}

TEST(CommScheduleTest, OverlapModeIsDeterministicAcrossThreads) {
  Matrix M;
  M.Base = Base + Overlap;
  Result R = check(stencilSource(), M);
  EXPECT_EQ(R.Divergence, "");
  EXPECT_GT(R.Runs[0].Report.Ledger.OverlappedCycles, 0.0);
}

TEST(CommScheduleTest, VariedProgramsMatchSyncOutputs) {
  // A spread of shapes: eoshift clauses, mixed axes (only same-axis runs
  // coalesce), aliased updates, transpose and reduction consumers.
  const char *Programs[] = {
      "program p\n"
      "real u(32), a(32), b(32)\n"
      "u = 1.0\n"
      "a = eoshift(u, 1, 1)\n"
      "b = eoshift(u, -3, 1)\n"
      "u = a + b\n"
      "print *, sum(u)\n"
      "end\n",
      "program p\n"
      "real m(16,16), x(16,16), y(16,16), s\n"
      "m = 2.0\n"
      "x = cshift(m, 1, 1)\n"
      "y = cshift(m, 1, 2)\n"
      "s = sum(x - y)\n"
      "print *, s\n"
      "end\n",
      "program p\n"
      "integer t\n"
      "real u(40), v(40)\n"
      "u = 5.0\n"
      "do t = 1, 3\n"
      "  v = cshift(u, 1, 1)\n"
      "  u = cshift(u, -1, 1)\n"
      "  u = u + v\n"
      "end do\n"
      "print *, sum(u)\n"
      "end\n",
  };
  for (const char *Src : Programs) {
    Result R = syncVersusOverlap(Src, /*Host=*/false);
    ASSERT_EQ(R.Divergence, "") << Src;
    const runtime::CycleLedger &S = R.Runs[0].Report.Ledger,
                               &O = R.Runs[1].Report.Ledger;
    EXPECT_EQ(S.NodeCycles, O.NodeCycles) << Src;
    EXPECT_LE(O.total(), S.total()) << Src;
  }
}

TEST(CommScheduleTest, MetricsReportCoalescingAndOverlap) {
  Record R = run(stencilSource(), Base + Overlap, /*Traced=*/true);
  ASSERT_TRUE(R.Ok) << R.Diags;
  // 4 shifts -> 1 exchange, 3 startups saved, per loop iteration.
  EXPECT_EQ(R.metric("comm.coalesced"), 12.0);
  EXPECT_GT(R.metric("comm.overlapped_cycles"), 0.0);
  EXPECT_GT(R.metric("comm.multi-shift.ops"), 0.0);
}

TEST(CommScheduleTest, FaultedCoalescedExchangeStillMatchesSync) {
  // The coalesced exchange under transient drops and corruption must
  // retry / roll back exactly like its unfused parts: the output and
  // fields match a fault-free synchronous run bit for bit.
  Result R = syncVersusOverlap(
      stencilSource(), /*Host=*/false,
      {Overlap + Leg{{"-faults=grid-timeout:0.3,corrupt:0.3",
                      "-fault-seed=11"}}});
  ASSERT_EQ(R.Divergence, "");
  const driver::RunReport &CleanSched = R.Runs[1].Report, &F = R.Runs[2].Report;
  EXPECT_GT(F.Faults.totalInjected(), 0u);
  // Recovery costs cycles; it never changes answers. The baseline here is
  // the fault-free *scheduled* run - the faulted one repeats exchanges.
  EXPECT_GT(F.Ledger.CommCycles, CleanSched.Ledger.CommCycles);
}

} // namespace
