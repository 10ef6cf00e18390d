//===- bench/paper.cpp - the paper's experiments as one table -------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every number EXPERIMENTS.md reports for experiments E1-E9, E11 and
/// E12. A row names a program, the driver::Config it compiles and runs
/// under, and at most one CompileOptions field it turns off; each column
/// reads one quantity of the compile or the run. Simulated cycles are
/// deterministic, so EXPERIMENTS.md holds each table verbatim as the
/// expected output.
///
///   paper [E1 ...]              print the tables (all by default)
///   paper -check=DOC E1 ...     exit 1 unless each table is the first one
///                               under DOC's "## E1 " heading and the
///                               paper's relations hold
///   paper -update=DOC [E1 ...]  rewrite DOC's tables in place
///
/// No row runs the NIR interpreter: the useful-flop count behind each
/// GFLOPS figure is stored once per program.
///
//===----------------------------------------------------------------------===//

#include "baselines/Fieldwise.h"
#include "driver/Config.h"
#include "driver/Workloads.h"
#include "observe/Metrics.h"
#include "support/FileIO.h"
#include "transform/Transforms.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

using namespace f90y;
using namespace f90y::driver;
using runtime::CmRuntime;

namespace {

/// The one CompileOptions field an ablation row turns off.
using Ablation = bool &(*)(CompileOptions &);
bool &blocking(CompileOptions &O) { return O.Transforms.Blocking; }
bool &chaining(CompileOptions &O) { return O.Backend.PE.Chaining; }
bool &dualIssue(CompileOptions &O) { return O.Backend.PE.DualIssue; }
bool &madd(CompileOptions &O) { return O.Backend.PE.MaddFusion; }
bool &cse(CompileOptions &O) { return O.Backend.PE.CSE; }
bool &spillScheduling(CompileOptions &O) {
  return O.Backend.PE.SpillScheduling;
}

/// E7's grid: every runtime row moves one field of CommGrid^2 reals.
constexpr int64_t CommGrid = 512;
constexpr double Cells = CommGrid * CommGrid;

struct Row {
  std::string Label;
  std::string Src = {}; ///< Fortran-90 source; empty for a runtime row.
  Config Cfg = {};
  Ablation Off = nullptr;
  /// Time the raw NIR by the static *Lisp fieldwise model; do not run.
  bool Fieldwise = false;
  const char *Paper = nullptr; ///< The paper's figure, where it gives one.
  /// A runtime row calls CmRuntime directly: one op from field A into B,
  /// returning the elements it moved (0 on failure).
  std::function<double(CmRuntime &, int A, int B)> Op = nullptr;
};

/// Every quantity a row can report; a column reads one field.
struct Sample {
  double Cycles = 0; ///< Simulated total: the ledger's, or fieldwise.
  double CommCycles = 0, CallCycles = 0, OverlappedCycles = 0;
  double Gflops = 0;                                  ///< Useful flops.
  double CallShare = 0, NodeShare = 0, CommShare = 0; ///< % of Cycles.
  double CommPerElement = 0;                          ///< Runtime rows.
  double Routines = 0, ScalarArgs = 0, BodyInstrs = 0, NodeCycles = 0;
  /// The compile's fuse.* and layout.* gauges.
  double TempsEliminated = 0, MovesFused = 0, BytesSaved = 0;
  double FieldsRealigned = 0, MovesLocalized = 0, CommCyclesSaved = 0;
  /// Phases of the lowered NIR, and of the transformed NIR.
  double LoweredSections = 0, Sections = 0, Computations = 0, HostMoves = 0;
  /// The routine that divides: Figure 12's statement.
  double DivInstrs = 0, DivSlots = 0, DivCycles = 0;
  /// The largest routine: E6's pressure expression.
  double Spills = 0, LargestCycles = 0;
  std::string Output;
};
using Samples = std::vector<Sample>;

struct Column {
  const char *Head;
  double Sample::*Field;
  const char *Format = "%.1f"; ///< printf format of the value.
};

const Column Cycles{"simulated cycles", &Sample::Cycles};
const Column CommCycles{"comm cycles", &Sample::CommCycles};
const Column NodeCycles{"node cycles", &Sample::NodeCycles};
const Column CallCycles{"PEAC call cycles", &Sample::CallCycles};
const Column Overlapped{"overlapped cycles", &Sample::OverlappedCycles};
const Column Gflops{"GFLOPS", &Sample::Gflops, "%.2f"};
const Column CallShare{"call share", &Sample::CallShare, "%.1f%%"};
const Column NodeShare{"node share", &Sample::NodeShare, "%.1f%%"};
const Column CommShare{"comm share", &Sample::CommShare, "%.1f%%"};
const Column PerElement{"cycles / element", &Sample::CommPerElement, "%.4f"};
const Column Routines{"PEAC routines", &Sample::Routines, "%.0f"};
const Column ScalarArgs{"scalar (IFIFO) args", &Sample::ScalarArgs, "%.0f"};
const Column BodyInstrs{"PEAC body instructions", &Sample::BodyInstrs,
                        "%.0f"};
const Column TempsEliminated{"temps eliminated", &Sample::TempsEliminated,
                             "%.0f"};
const Column MovesFused{"moves fused", &Sample::MovesFused, "%.0f"};
const Column BytesSaved{"bytes saved / step", &Sample::BytesSaved, "%.0f"};
const Column FieldsRealigned{"fields realigned", &Sample::FieldsRealigned,
                             "%.0f"};
const Column MovesLocalized{"comm moves localized", &Sample::MovesLocalized,
                            "%.0f"};
const Column CommCyclesSaved{"est. comm cycles saved / step",
                             &Sample::CommCyclesSaved, "%.0f"};
const Column LoweredSections{"section moves, lowered",
                             &Sample::LoweredSections, "%.0f"};
const Column Sections{"section moves, transformed", &Sample::Sections,
                      "%.0f"};
const Column Computations{"computation phases", &Sample::Computations,
                          "%.0f"};
const Column HostMoves{"host element moves", &Sample::HostMoves, "%.0f"};
const Column DivInstrs{"loop-body instructions", &Sample::DivInstrs, "%.0f"};
const Column DivSlots{"issue slots", &Sample::DivSlots, "%.0f"};
const Column DivCycles{"cycles / subgrid iteration", &Sample::DivCycles};
const Column Spills{"spill slots", &Sample::Spills, "%.0f"};
const Column LargestCycles{"cycles / iteration", &Sample::LargestCycles};

struct Experiment {
  const char *Id;
  const char *RowHead;
  std::vector<Column> Cols;
  std::vector<Row> Rows;
  /// The paper's relations over the samples: the claims that fail, or "".
  std::string (*Holds)(const Samples &S);
};

/// The useful flops of each program whose GFLOPS a table reports, as the
/// NIR interpreter counts them (SWE 512x512x6's is also in perfbench's
/// refs); 0 for any other program. Recount when a program changes.
uint64_t usefulFlops(const std::string &Src) {
  static const std::map<std::string, uint64_t> Flops = {
      {sweSource(512, 6), 82051080}, {sweSource(512, 3), 42729480},
      {sweSource(64, 2), 462856},    {sweSource(256, 2), 7405576},
      {sweSource(512, 2), 29622280}, {sweSource(1024, 2), 118489096}};
  const auto It = Flops.find(Src);
  return It == Flops.end() ? 0 : It->second;
}

std::string expect(bool Ok, const char *Claim) {
  return Ok ? "" : std::string(Claim) + "; ";
}

/// E5's rows alternate blocked and per-statement by growing VP ratio.
std::string amortizes(const Samples &S) {
  bool Falls = true, Blocked = true;
  for (size_t R = 0; R < S.size(); R += 2) {
    Blocked &= S[R].Gflops > S[R + 1].Gflops;
    if (R + 2 < S.size())
      Falls &= S[R + 2].CallShare < S[R].CallShare &&
               S[R + 3].CallShare < S[R + 1].CallShare;
  }
  return expect(Falls, "the call share falls as the VP ratio grows") +
         expect(Blocked, "blocked beats per-statement at every VP ratio");
}

/// E6's rows come in threes: full optimization, no chaining, no spill
/// scheduling.
std::string relievesPressure(const Samples &S) {
  bool Chaining = true, Scheduling = true;
  for (size_t R = 0; R < S.size(); R += 3) {
    if (S[R].Spills > 0)
      Chaining &= S[R + 1].Spills > S[R].Spills;
    Scheduling &= S[R + 2].LargestCycles >= S[R].LargestCycles;
  }
  return expect(Chaining, "without chaining the expression needs more "
                          "spill slots wherever it spills") +
         expect(Scheduling, "spill scheduling never costs cycles");
}

/// E7's rows are eight grid shifts by growing distance, then the router.
std::string gridBeatsRouter(const Samples &S) {
  bool Grows = true;
  for (size_t R = 1; R < 8; ++R)
    Grows &= S[R].CommPerElement > S[R - 1].CommPerElement;
  return expect(Grows, "grid-shift cost grows with distance") +
         expect(S[0].CommPerElement < S[8].CommPerElement,
                "a near shift beats the router");
}

/// A right-nested product of sums, z = (a1+b1) * ((a2+b2) * (...)),
/// whose left factors all stay live while the right spine is evaluated,
/// so \p Depth sums are live at once. Every leaf is single-use, so load
/// chaining can substitute memory operands for registers.
std::string pressureSource(unsigned Depth) {
  std::string Decls, Inits, Expr;
  for (unsigned I = 1; I <= Depth; ++I) {
    const std::string N = std::to_string(I);
    Decls += "real a" + N + "(64), b" + N + "(64)\n";
    Inits += "a" + N + " = " + N + ".0\nb" + N + " = 0.5\n";
    Expr += "(a" + N + " + b" + N + ")" + (I != Depth ? " * (" : "");
  }
  return "program p\nreal z(64)\n" + Decls + Inits + "z = " + Expr +
         std::string(Depth - 1, ')') + "\nend\n";
}

/// E9's comm-heavy loop: four same-axis shifts of the state field per
/// step, plus an independent different-shape update for the exchanges to
/// hide under.
const char *const CommOverlapSource = R"f90(program commswe
integer t
real u(512), un(512), a(512), b(512), c(512), d(512)
real h(192,192), hn(192,192)
u = 7.5
h = 1.25
do t = 1, 24
  a = cshift(u, 1, 1)
  b = cshift(u, -1, 1)
  c = cshift(u, 2, 1)
  d = cshift(u, -2, 1)
  hn = h*h + 0.5*h - h/8.0
  un = 0.25*(a + b + c + d) - 0.001*u
  u = un
  h = hn - 0.125
end do
print *, sum(u)
print *, sum(h)
end
)f90";

std::vector<Experiment> experiments() {
  // The paper's compiler under its strict (synchronous) communication
  // model, and the two baselines, whose unset comm is sync already.
  const Config F90y{.OverlapComm = false};
  const Config Cmf{.Prof = Profile::CMFStyle};
  const Config Naive{.Prof = Profile::Naive};
  std::vector<Experiment> All;

  const std::string Swe = sweSource(512, 6);
  All.push_back(
      {"E1", "configuration", {Cycles, Gflops},
       {{.Label = "\\*Lisp (fieldwise)", .Src = Swe, .Fieldwise = true,
         .Paper = "1.89"},
        {.Label = "CM Fortran v1.1 (per-statement)", .Src = Swe, .Cfg = Cmf,
         .Paper = "2.79"},
        {.Label = "Fortran-90-Y", .Src = Swe, .Cfg = F90y, .Paper = "2.99"},
        {.Label = "− blocking", .Src = Swe, .Cfg = F90y, .Off = blocking},
        {.Label = "− chaining", .Src = Swe, .Cfg = F90y, .Off = chaining},
        {.Label = "− dual issue", .Src = Swe, .Cfg = F90y, .Off = dualIssue},
        {.Label = "− multiply-add", .Src = Swe, .Cfg = F90y, .Off = madd},
        {.Label = "− CSE", .Src = Swe, .Cfg = F90y, .Off = cse},
        {.Label = "naive node code (per-statement)", .Src = Swe, .Cfg = Naive},
        {.Label = "Fortran-90-Y, overlapped comm (f90yc default)", .Src = Swe}},
       [](const Samples &S) {
         bool Ablations = true;
         for (size_t R = 3; R <= 8; ++R)
           Ablations &= S[R].Gflops < S[2].Gflops;
         return expect(S[0].Gflops < S[1].Gflops && S[1].Gflops < S[2].Gflops,
                       "fieldwise < CM Fortran < Fortran-90-Y GFLOPS") +
                expect(Ablations, "every ablation runs below Fortran-90-Y") +
                expect(S[9].Gflops > S[2].Gflops, "overlap beats sync");
       }});

  const std::string Fig12 = figure12Source(64);
  All.push_back(
      {"E2", "PEAC encoding", {DivInstrs, DivSlots, DivCycles},
       {{.Label = "naive", .Src = Fig12, .Cfg = Naive,
         .Paper = "14 instructions"},
        {.Label = "optimized", .Src = Fig12, .Cfg = F90y,
         .Paper = "9 instructions, ~7 slots"}},
       [](const Samples &S) {
         return expect(S[1].DivInstrs < S[0].DivInstrs &&
                           S[1].DivSlots < S[0].DivSlots &&
                           S[1].DivCycles < S[0].DivCycles,
                       "optimized code is smaller and faster than naive");
       }});

  All.push_back(
      {"E3", "compilation",
       {Computations, HostMoves, Routines, CallCycles, Cycles},
       {{.Label = "per-statement (cmf)", .Src = figure9Source(), .Cfg = Cmf},
        {.Label = "blocked (f90y)", .Src = figure9Source(), .Cfg = F90y}},
       [](const Samples &S) {
         return expect(S[1].Computations < S[0].Computations &&
                           S[1].Routines < S[0].Routines &&
                           S[1].CallCycles < S[0].CallCycles,
                       "blocking fuses phases and saves PEAC calls");
       }});

  All.push_back(
      {"E4", "compilation", {LoweredSections, Sections, Computations, Routines},
       {{.Label = "per-statement (cmf)", .Src = figure10Source(), .Cfg = Cmf},
        {.Label = "masked + blocked (f90y)", .Src = figure10Source(),
         .Cfg = F90y}},
       [](const Samples &S) {
         return expect(S[1].LoweredSections > 0 && S[1].Sections == 0,
                       "masking turns every section move into compute") +
                expect(S[1].Routines == 2,
                       "the fragment compiles into two PEAC routines");
       }});

  Experiment E5{"E5", "grid, compilation", {Gflops, CallShare}, {}, amortizes};
  const unsigned PEs = Config{}.machine().NumPEs;
  for (int64_t N : {64, 256, 512, 1024})
    for (auto [Name, Cfg] : {std::pair{"blocked (f90y)", F90y},
                             {"per-statement (cmf)", Cmf}})
      E5.Rows.push_back({.Label = std::to_string(N) + "×" +
                                  std::to_string(N) + " (VP " +
                                  std::to_string(N * N / PEs) + "), " + Name,
                         .Src = sweSource(N, 2), .Cfg = Cfg});
  All.push_back(std::move(E5));

  // Per-statement compilation isolates the pressure expression in its own
  // routine: blocking would fuse the constant initializations in, and
  // fusion would fold their constants into the expression.
  Experiment E6{"E6", "compilation", {Spills, LargestCycles}, {},
                relievesPressure};
  for (unsigned Depth : {6u, 8u, 12u, 16u})
    for (auto [Name, Off] :
         {std::pair<const char *, Ablation>{"full optimization", nullptr},
          {"− chaining", chaining},
          {"− spill scheduling", spillScheduling}})
      E6.Rows.push_back({.Label = std::to_string(Depth) + " live sums, " + Name,
                         .Src = pressureSource(Depth), .Cfg = Cmf,
                         .Off = Off});
  All.push_back(std::move(E6));

  Experiment E7{"E7", "operation", {CommCycles, PerElement}, {},
                gridBeatsRouter};
  for (int64_t D : {1, 2, 4, 8, 16, 32, 64, 128})
    E7.Rows.push_back({.Label = "cshift, distance " + std::to_string(D),
                       .Op = [D](CmRuntime &RT, int A, int B) {
                         return RT.cshift(B, A, 1, D).isOk() ? Cells : 0;
                       }});
  E7.Rows.push_back({.Label = "transpose (router)",
                     .Op = [](CmRuntime &RT, int A, int B) {
                       return RT.transpose(B, A).isOk() ? Cells : 0;
                     }});
  E7.Rows.push_back({.Label = "misaligned half-grid section copy (router)",
                     .Op = [](CmRuntime &RT, int A, int B) {
                       const int64_t H = CommGrid / 2, N = CommGrid;
                       return RT.sectionCopy(B, {{0, 1, H}, {0, 1, N}}, A,
                                             {{H, 1, H}, {0, 1, N}})
                                      .isOk()
                                  ? Cells / 2
                                  : 0;
                     }});
  All.push_back(std::move(E7));

  const std::string Swe3 = sweSource(512, 3);
  All.push_back(
      {"E8", "machine", {Routines, ScalarArgs, Gflops, NodeShare, CommShare},
       {{.Label = "CM/2 (2048 slicewise PEs)", .Src = Swe3, .Cfg = F90y},
        {.Label = "CM/5 (1024 vector nodes)", .Src = Swe3,
         .Cfg = {.Cm5 = true, .OverlapComm = false}}},
       [](const Samples &S) {
         return expect(S[0].Routines == S[1].Routines &&
                           S[0].ScalarArgs == S[1].ScalarArgs,
                       "the retarget keeps every routine") +
                expect(S[1].Gflops > S[0].Gflops &&
                           S[1].CommShare > S[0].CommShare,
                       "the faster node shifts time toward communication");
       }});

  All.push_back(
      {"E9", "communication", {Cycles, CommCycles, Overlapped},
       {{.Label = "sync (the paper's strict model)", .Src = CommOverlapSource,
         .Cfg = F90y},
        {.Label = "scheduled + overlapped (f90yc default)",
         .Src = CommOverlapSource}},
       [](const Samples &S) {
         return expect(S[1].Cycles <= 0.8 * S[0].Cycles,
                       "overlap saves at least 20% of the cycles") +
                expect(S[0].Output == S[1].Output,
                       "both models print the same output");
       }});

  // E11 and E12 flip one compile-time switch of F90y.
  const std::string Temps = sweTempsSource(192, 4);
  All.push_back(
      {"E11", "configuration",
       {Routines, BodyInstrs, NodeCycles, CommCycles, TempsEliminated,
        MovesFused, BytesSaved},
       {{.Label = "`-fuse=off`", .Src = Temps,
         .Cfg = {.OverlapComm = false, .Fuse = false}},
        {.Label = "`-fuse=on` (default)", .Src = Temps, .Cfg = F90y}},
       [](const Samples &S) {
         return expect(S[1].BodyInstrs < S[0].BodyInstrs &&
                           S[1].NodeCycles < S[0].NodeCycles,
                       "fusion saves PEAC instructions and node cycles") +
                expect(S[1].TempsEliminated > 0 && S[1].MovesFused > 0,
                       "fusion eliminates temporaries") +
                expect(S[0].Output == S[1].Output,
                       "both print the same output");
       }});

  const std::string Misaligned = misalignedSweSource(128, 4);
  All.push_back(
      {"E12", "program, configuration",
       {Routines, BodyInstrs, NodeCycles, CommCycles, FieldsRealigned,
        MovesLocalized, CommCyclesSaved},
       {{.Label = "neighbor-field SWE, `-layout=canonical`", .Src = Misaligned,
         .Cfg = {.OverlapComm = false, .Layout = false}},
        {.Label = "neighbor-field SWE, `-layout=infer` (default)",
         .Src = Misaligned, .Cfg = F90y},
        {.Label = "stock SWE 64×64×1, `-layout=infer` (control)",
         .Src = sweSource(64, 1), .Cfg = F90y}},
       [](const Samples &S) {
         return expect(S[1].CommCycles <= 0.75 * S[0].CommCycles,
                       "inference cuts at least 25% of the comm cycles") +
                expect(S[1].FieldsRealigned > 0 && S[1].MovesLocalized > 0,
                       "inference realigns the neighbor fields") +
                expect(S[2].FieldsRealigned == 0 && S[2].MovesLocalized == 0,
                       "inference leaves the stock SWE canonical") +
                expect(S[0].Output == S[1].Output,
                       "both layouts print the same output");
       }});
  return All;
}

[[noreturn]] void die(const std::string &What, const std::string &Why) {
  std::fprintf(stderr, "paper: %s: %s\n", What.c_str(), Why.c_str());
  std::exit(1);
}

/// Reads the compile's quantities into \p S.
void readCompile(const Artifacts &A, const observe::MetricsRegistry &Gauges,
                 const cm2::CostModel &M, Sample &S) {
  S.LoweredSections = transform::countPhases(A.RawNIR).CommunicationPhases;
  const transform::PhaseStats P = transform::countPhases(A.OptimizedNIR);
  S.Sections = P.CommunicationPhases;
  S.Computations = P.ComputationPhases;
  S.HostMoves = P.HostScalarPhases;
  S.Routines = A.Compiled.Program.Routines.size();
  const peac::Routine *Largest = nullptr;
  for (const peac::Routine &R : A.Compiled.Program.Routines) {
    S.ScalarArgs += R.NumScalarArgs;
    S.BodyInstrs += R.bodyInstructionCount();
    if (std::any_of(R.Body.begin(), R.Body.end(), [](const auto &I) {
          return I.Op == peac::Opcode::FDivV;
        })) {
      S.DivInstrs = R.bodyInstructionCount();
      S.DivSlots = R.slotCount();
      S.DivCycles = R.cyclesPerIteration(M);
    }
    if (!Largest || R.bodyInstructionCount() > Largest->bodyInstructionCount())
      Largest = &R;
  }
  if (Largest) {
    S.Spills = Largest->NumSpillSlots;
    S.LargestCycles = Largest->cyclesPerIteration(M);
  }
  S.TempsEliminated = Gauges.value("fuse.temps_eliminated");
  S.MovesFused = Gauges.value("fuse.moves_fused");
  S.BytesSaved = Gauges.value("fuse.bytes_saved");
  S.FieldsRealigned = Gauges.value("layout.fields_realigned");
  S.MovesLocalized = Gauges.value("layout.comm_moves_localized");
  S.CommCyclesSaved = Gauges.value("layout.comm_cycles_saved");
}

Sample measure(const Row &R) {
  const cm2::CostModel M = R.Cfg.machine();
  runtime::CycleLedger L;
  Sample S;
  if (R.Op) {
    CmRuntime RT(M);
    const auto *Geo = RT.getGeometry({CommGrid, CommGrid}, {1, 1});
    const int A = RT.allocField(Geo, runtime::ElemKind::Real);
    const int B = RT.allocField(Geo, runtime::ElemKind::Real);
    RT.ledger().reset();
    const double Moved = R.Op(RT, A, B);
    if (!Moved)
      die(R.Label, "runtime op failed");
    L = RT.ledger();
    S.CommPerElement = L.CommCycles / Moved;
  } else {
    CompileOptions Opts = R.Cfg.compileOptions();
    if (R.Off)
      R.Off(Opts) = false;
    Compilation C(std::move(Opts));
    observe::MetricsRegistry Gauges;
    C.setObservability(nullptr, &Gauges);
    if (!C.compile(R.Src))
      die(R.Label, C.diags().str());
    const Artifacts &A = C.artifacts();
    readCompile(A, Gauges, M, S);
    if (R.Fieldwise) {
      bool Timeable = true;
      S.Cycles = baselines::fieldwiseCycles(A.RawNIR, M, Timeable);
      if (!Timeable)
        die(R.Label, "fieldwise timing depends on data");
    } else {
      Execution Exec(M, R.Cfg.executionOptions());
      auto Report = Exec.run(A.Compiled.Program);
      if (!Report)
        die(R.Label, Exec.diags().str());
      L = Report->Ledger;
      S.Output = Report->Output;
    }
  }
  if (!R.Fieldwise)
    S.Cycles = L.total();
  S.CommCycles = L.CommCycles;
  S.NodeCycles = L.NodeCycles;
  S.CallCycles = L.CallCycles;
  S.OverlappedCycles = L.OverlappedCycles;
  S.Gflops = usefulFlops(R.Src) / M.seconds(S.Cycles) / 1e9;
  S.CallShare = 100 * L.CallCycles / S.Cycles;
  S.NodeShare = 100 * L.NodeCycles / S.Cycles;
  S.CommShare = 100 * L.CommCycles / S.Cycles;
  return S;
}

/// The experiment's markdown table.
std::string render(const Experiment &E, const Samples &S) {
  const bool Paper = std::any_of(E.Rows.begin(), E.Rows.end(),
                                 [](const Row &R) { return R.Paper; });
  std::string T = std::string("| ") + E.RowHead, Rule = "|---";
  for (const Column &C : E.Cols)
    T.append(" | ").append(C.Head), Rule += "|---";
  if (Paper)
    T += " | paper", Rule += "|---";
  T += " |\n" + Rule + "|\n";
  for (size_t I = 0; I < E.Rows.size(); ++I) {
    T += "| " + E.Rows[I].Label;
    for (const Column &C : E.Cols) {
      char Buf[64];
      std::snprintf(Buf, sizeof Buf, C.Format, S[I].*C.Field);
      T.append(" | ").append(Buf);
    }
    if (Paper)
      T.append(" | ").append(E.Rows[I].Paper ? E.Rows[I].Paper : "—");
    T += " |\n";
  }
  return T;
}

/// Finds the first table under the "## <Id> " heading of \p Doc: the
/// lines in [Begin, End), which end at the first blank line.
bool findTable(const std::string &Doc, const std::string &Id, size_t &Begin,
               size_t &End) {
  const size_t Heading = Doc.find("\n## " + Id + " ");
  Begin = Doc.find("\n|", Heading);
  End = Doc.find("\n\n", Begin);
  if (Heading == std::string::npos || End == std::string::npos ||
      Begin > Doc.find("\n## ", Heading + 1))
    return false;
  ++Begin, ++End;
  return true;
}

int usage() {
  std::fprintf(stderr, "usage: paper [-check=DOC | -update=DOC] [E1...]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string Check, Update;
  std::vector<std::string> Ids;
  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    if (Arg.rfind("-check=", 0) == 0)
      Check = Arg.substr(7);
    else if (Arg.rfind("-update=", 0) == 0)
      Update = Arg.substr(8);
    else if (Arg.empty() || Arg[0] == '-')
      return usage();
    else
      Ids.push_back(Arg);
  }
  std::vector<Experiment> Chosen = experiments();
  std::erase_if(Chosen, [&](const Experiment &E) {
    return !Ids.empty() && !std::count(Ids.begin(), Ids.end(), E.Id);
  });
  if ((!Check.empty() && !Update.empty()) ||
      (!Ids.empty() && Chosen.size() != Ids.size()))
    return usage();

  const std::string DocPath = Check.empty() ? Update : Check;
  std::string Doc, Error;
  if (!DocPath.empty() && !support::readFile(DocPath, Doc, &Error))
    die(DocPath, Error);

  int Status = 0;
  for (const Experiment &E : Chosen) {
    Samples S;
    for (const Row &R : E.Rows)
      S.push_back(measure(R));
    const std::string Table = render(E, S);
    std::printf("## %s\n\n%s\n", E.Id, Table.c_str());
    if (const std::string Broken = E.Holds(S); !Broken.empty()) {
      std::fprintf(stderr, "paper: %s: the paper's relations fail: %s\n",
                   E.Id, Broken.c_str());
      Status = 1;
    }
    size_t Begin = 0, End = 0;
    if (DocPath.empty())
      continue;
    if (!findTable(Doc, E.Id, Begin, End)) {
      std::fprintf(stderr, "paper: %s has no table under '## %s '\n",
                   DocPath.c_str(), E.Id);
      Status = 1;
    } else if (!Update.empty()) {
      Doc.replace(Begin, End - Begin, Table);
    } else if (Doc.compare(Begin, End - Begin, Table) != 0) {
      std::fprintf(stderr,
                   "paper: %s: the table in %s is not the measured one "
                   "above (paper -update=%s rewrites it)\n",
                   E.Id, DocPath.c_str(), DocPath.c_str());
      Status = 1;
    }
  }
  if (!Update.empty() && !support::atomicWriteFile(Update, Doc, &Error))
    die(Update, Error);
  return Status;
}
