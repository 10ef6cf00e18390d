//===- tests/checkpoint_test.cpp - checkpoint/restart contract --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkpoint/restart contract (DESIGN.md section 9): a run killed at
/// a step boundary and resumed with -restore= is bit-identical - program
/// output, cycle ledger, fault counters, final field contents - to one
/// that never stopped, at every thread count, PEAC engine, comm model and
/// fault configuration (the invariance harness's kill/restore variant);
/// every damaged byte of a checkpoint file is detected at
/// load (per-section CRC-32) and falls back to the previous retained
/// generation; a checkpoint from a different program or fault
/// configuration is rejected; a missing or empty restore file is a clean
/// structured failure, never a crash.
///
//===----------------------------------------------------------------------===//

#include "invariance/Invariance.h"
#include "observe/Metrics.h"
#include "runtime/Checkpoint.h"
#include "support/FileIO.h"
#include "support/Serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace f90y;
using namespace f90y::invariance;
using runtime::ckpt::CheckpointState;
using runtime::ckpt::Controller;

namespace {

/// Runtime overlap on a 16-PE machine: an exchange may be in flight at a
/// step boundary.
const Leg Base{{"-pes=16", UnscheduledOverlap}};

/// A stepped program crossing every checkpointed surface: grid shifts
/// (comm + possible in-flight exchange under overlap), PEAC compute,
/// scalar accumulation across iterations, and PRINT output both inside
/// the loop (partial output must survive the kill) and after it.
const char *steppedProgram() {
  return "program stepped\n"
         "integer, parameter :: n = 8\n"
         "real a(n,n), b(n,n)\n"
         "real s\n"
         "integer i, j, t\n"
         "forall (i=1:n, j=1:n) a(i,j) = sin(real(i))*real(j)\n"
         "b = cshift(a, 1, 1)\n"
         "s = 0.0\n"
         "do t = 1, 8\n"
         "  a = a + 0.25*(cshift(a,1,1) + cshift(a,-1,1) &\n"
         "      + cshift(a,1,2) + cshift(a,-1,2))\n"
         "  b = b + transpose(a)\n"
         "  s = s + sum(a)/real(n*n)\n"
         "  print *, 'step', t, s\n"
         "end do\n"
         "print *, 'final:', s, maxval(b)\n"
         "end program stepped\n";
}

/// Temp-file path unique to the current test.
std::string tempPath(const std::string &Leaf) {
  const ::testing::TestInfo *TI =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "f90y_" + TI->test_suite_name() + "_" +
         TI->name() + "_" + Leaf;
}

void removeGenerations(const std::string &Path, unsigned Keep = 4) {
  std::remove(Path.c_str());
  for (unsigned I = 1; I <= Keep; ++I)
    std::remove((Path + "." + std::to_string(I)).c_str());
}

/// One section of a serialized checkpoint, located by walking the real
/// header layout: magic(8) version(4) count(4), then per section
/// fourcc(4) size(8) crc(4) payload.
struct RawSection {
  std::string Name;
  size_t PayloadOff = 0;
  uint64_t Size = 0;
};

std::vector<RawSection> sectionsOf(const std::string &Bytes) {
  std::vector<RawSection> Out;
  support::ByteReader R(Bytes);
  R.skip(8); // Magic.
  R.u32();   // Version.
  uint32_t N = R.u32();
  for (uint32_t I = 0; I < N && R.ok(); ++I) {
    RawSection S;
    char Fourcc[5] = {};
    uint32_t Tag = R.u32();
    std::memcpy(Fourcc, &Tag, 4);
    S.Name = Fourcc;
    S.Size = R.u64();
    R.u32(); // CRC.
    S.PayloadOff = R.position();
    R.skip(S.Size);
    if (R.ok())
      Out.push_back(S);
  }
  EXPECT_TRUE(R.ok());
  return Out;
}

/// A fully-populated state for serializer round-trip tests.
CheckpointState sampleState() {
  CheckpointState S;
  S.ProgramTag = 0xdeadbeef;
  S.StepIndex = 42;
  S.LoopId = 1;
  S.LoopDomain = "t=1:8";
  S.LoopCoord = {5};
  S.StepsExecuted = 321;
  S.Ledger.NodeCycles = 1000.5;
  S.Ledger.CommCycles = 250.25;
  S.Ledger.Flops = 12345;
  S.Output = "step 1 0.5\n";
  CheckpointState::FieldImage F;
  F.Name = "a";
  F.Kind = 1;
  F.Extents = {8, 8};
  F.Los = {1, 1};
  F.Data = {1.0, -0.0, 3.5e-300,
            std::numeric_limits<double>::quiet_NaN()};
  S.Fields.push_back(F);
  CheckpointState::ScalarImage Sc;
  Sc.Name = "s";
  Sc.ValKind = 1;
  Sc.R = 2.75;
  S.Scalars.push_back(Sc);
  S.HasFaults = 1;
  S.FaultSeed = 7;
  S.FaultProb[2] = 0.05;
  S.Faults.OpIndex[2] = 99;
  S.Faults.Counters.Injected[2] = 3;
  S.Faults.Counters.Retries = 2;
  S.PendingRemaining = 12.5;
  S.PendingFields = {"a", "b"};
  S.HasMetrics = 1;
  observe::MetricsRegistry::Sample M;
  M.Name = "exec.statements";
  M.Kind = 0;
  M.Count = 77;
  S.Metrics.push_back(M);
  return S;
}

//===----------------------------------------------------------------------===//
// Serialization format
//===----------------------------------------------------------------------===//

TEST(CheckpointFormat, RoundTripsEveryField) {
  CheckpointState S = sampleState();
  std::string Bytes = runtime::ckpt::serializeCheckpoint(S);
  CheckpointState R;
  support::RtStatus St = runtime::ckpt::deserializeCheckpoint(Bytes, R);
  ASSERT_TRUE(St.isOk()) << St.str();

  EXPECT_EQ(R.ProgramTag, S.ProgramTag);
  EXPECT_EQ(R.StepIndex, S.StepIndex);
  EXPECT_EQ(R.LoopId, S.LoopId);
  EXPECT_EQ(R.LoopDomain, S.LoopDomain);
  EXPECT_EQ(R.LoopCoord, S.LoopCoord);
  EXPECT_EQ(R.StepsExecuted, S.StepsExecuted);
  EXPECT_EQ(R.Ledger.NodeCycles, S.Ledger.NodeCycles);
  EXPECT_EQ(R.Ledger.CommCycles, S.Ledger.CommCycles);
  EXPECT_EQ(R.Ledger.Flops, S.Ledger.Flops);
  EXPECT_EQ(R.Output, S.Output);
  ASSERT_EQ(R.Fields.size(), 1u);
  EXPECT_EQ(R.Fields[0].Name, "a");
  EXPECT_EQ(R.Fields[0].Extents, S.Fields[0].Extents);
  // Doubles travel as IEEE bits: NaNs and signed zeros round-trip.
  ASSERT_EQ(R.Fields[0].Data.size(), S.Fields[0].Data.size());
  EXPECT_EQ(std::memcmp(R.Fields[0].Data.data(), S.Fields[0].Data.data(),
                        S.Fields[0].Data.size() * sizeof(double)),
            0);
  ASSERT_EQ(R.Scalars.size(), 1u);
  EXPECT_EQ(R.Scalars[0].Name, "s");
  EXPECT_EQ(R.Scalars[0].R, 2.75);
  EXPECT_EQ(R.HasFaults, 1);
  EXPECT_EQ(R.FaultSeed, 7u);
  EXPECT_EQ(R.FaultProb[2], 0.05);
  EXPECT_EQ(R.Faults.OpIndex[2], 99u);
  EXPECT_EQ(R.Faults.Counters.Injected[2], 3u);
  EXPECT_EQ(R.Faults.Counters.Retries, 2u);
  EXPECT_EQ(R.PendingRemaining, 12.5);
  EXPECT_EQ(R.PendingFields, S.PendingFields);
  ASSERT_EQ(R.Metrics.size(), 1u);
  EXPECT_EQ(R.Metrics[0].Name, "exec.statements");
  EXPECT_EQ(R.Metrics[0].Count, 77u);
}

TEST(CheckpointFormat, DetectsBitFlipInEverySection) {
  std::string Bytes = runtime::ckpt::serializeCheckpoint(sampleState());
  std::vector<RawSection> Sections = sectionsOf(Bytes);
  ASSERT_EQ(Sections.size(), 8u); // All sections incl. optional METR.
  for (const RawSection &Sec : Sections) {
    ASSERT_GT(Sec.Size, 0u) << Sec.Name;
    std::string Damaged = Bytes;
    Damaged[Sec.PayloadOff + Sec.Size / 2] ^= 0x10;
    CheckpointState Out;
    support::RtStatus St =
        runtime::ckpt::deserializeCheckpoint(Damaged, Out);
    EXPECT_FALSE(St.isOk()) << "flip in section " << Sec.Name;
    EXPECT_EQ(St.code(), support::RtCode::CheckpointInvalid) << Sec.Name;
    EXPECT_NE(St.str().find(Sec.Name), std::string::npos)
        << "diagnostic should name section " << Sec.Name << ": "
        << St.str();
  }
}

TEST(CheckpointFormat, DetectsTruncationAnywhere) {
  std::string Bytes = runtime::ckpt::serializeCheckpoint(sampleState());
  // Every shorter prefix must fail cleanly (never crash or succeed).
  for (size_t Len : {size_t(0), size_t(4), size_t(15), Bytes.size() / 2,
                     Bytes.size() - 1}) {
    CheckpointState Out;
    support::RtStatus St =
        runtime::ckpt::deserializeCheckpoint(Bytes.substr(0, Len), Out);
    EXPECT_FALSE(St.isOk()) << "prefix of " << Len << " bytes";
    EXPECT_EQ(St.code(), support::RtCode::CheckpointInvalid);
  }
}

TEST(CheckpointFormat, DetectsBadMagicAndVersion) {
  std::string Bytes = runtime::ckpt::serializeCheckpoint(sampleState());
  CheckpointState Out;

  std::string BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_FALSE(runtime::ckpt::deserializeCheckpoint(BadMagic, Out).isOk());

  std::string BadVersion = Bytes;
  BadVersion[8] = static_cast<char>(runtime::ckpt::FormatVersion + 1);
  support::RtStatus St =
      runtime::ckpt::deserializeCheckpoint(BadVersion, Out);
  EXPECT_FALSE(St.isOk());
  EXPECT_NE(St.str().find("version"), std::string::npos) << St.str();
}

//===----------------------------------------------------------------------===//
// Kill/restore bit-identity
//===----------------------------------------------------------------------===//

/// The Host contract's kill/restore variant: every host leg of \p Legs
/// killed halfway (past several committed checkpoints) and restored is
/// bit-identical - output, ledger, fault counters, field storage - to the
/// run that never stopped.
void expectRestoresBitIdentically(const Leg &Legs) {
  Matrix M;
  M.Base = Legs;
  Result R = check(steppedProgram(), M);
  EXPECT_EQ(R.Divergence, "");
  EXPECT_EQ(R.Restored, hostLegs().size());
}

TEST(CheckpointRestartTest, BitIdenticalAcrossThreadsAndEngines) {
  expectRestoresBitIdentically(Base);
}

TEST(CheckpointRestartTest, BitIdenticalUnderFaultInjection) {
  expectRestoresBitIdentically(
      Base + Leg{{"-faults=router-drop:0.05,corrupt:0.05,pe-trap:0.05,fpu:0.05",
                  "-fault-seed=7"}});
}

TEST(CheckpointRestartTest, BitIdenticalWithStrictCommModel) {
  expectRestoresBitIdentically(Base + Leg{{"-comm=sync"}});
}

TEST(CheckpointRestartTest, RestoredRunContinuesMetrics) {
  std::string Path = tempPath("ck.bin");
  removeGenerations(Path);
  const Leg Serial = Base + Leg{{"-threads=1"}};

  Record Full = run(steppedProgram(), Serial, /*Traced=*/true);
  ASSERT_TRUE(Full.Ok) << Full.Diags;
  const double Statements = Full.metric("exec.statements");

  runtime::ckpt::Options WriteOpts;
  WriteOpts.Path = Path;
  Record Killed = run(
      steppedProgram(),
      Serial + Leg{{"-max-steps=" +
                    std::to_string(static_cast<uint64_t>(Statements) / 2)}},
      /*Traced=*/true, WriteOpts);
  ASSERT_FALSE(Killed.Ok);
  EXPECT_GE(Killed.metric("ckpt.write.count"), 1.0);
  EXPECT_GT(Killed.metric("ckpt.write.bytes"), 0.0);

  runtime::ckpt::Options RestoreOpts;
  RestoreOpts.RestorePath = Path;
  Record Resumed = run(steppedProgram(), Serial, /*Traced=*/true, RestoreOpts);
  ASSERT_TRUE(Resumed.Ok) << Resumed.Diags;
  EXPECT_EQ(Resumed.Report.Output, Full.Report.Output);
  // The restored registry continues the killed run's counts: the total
  // statement count matches an uninterrupted run (not just the tail).
  EXPECT_EQ(Resumed.metric("exec.statements"), Statements);
  EXPECT_GE(Resumed.metric("ckpt.restore.count"), 1.0);
  removeGenerations(Path);
}

//===----------------------------------------------------------------------===//
// Damage detection and fallback
//===----------------------------------------------------------------------===//

class CheckpointDamageTest : public ::testing::Test {
protected:
  const Leg Cfg = Base + Leg{{"-threads=1"}};

  Record runStepped(const runtime::ckpt::Options &Ckpt = {}) {
    return run(steppedProgram(), Cfg, false, Ckpt);
  }

  /// Runs to completion writing every-step checkpoints, so Path, Path.1,
  /// Path.2 all exist (Keep=3) when the helper returns.
  void writeGenerations(const std::string &Path) {
    runtime::ckpt::Options WriteOpts;
    WriteOpts.Path = Path;
    Record Full = runStepped(WriteOpts);
    ASSERT_TRUE(Full.Ok) << Full.Diags;
    ASSERT_GE(Full.CheckpointsWritten, 3u);
  }

  runtime::ckpt::Options restoreFrom(const std::string &Path) {
    runtime::ckpt::Options O;
    O.RestorePath = Path;
    return O;
  }
};

TEST_F(CheckpointDamageTest, FallsBackToPreviousGenerationOnCorruption) {
  std::string Path = tempPath("ck.bin");
  removeGenerations(Path);
  writeGenerations(Path);
  Record Full = runStepped();

  // Damage the primary checkpoint; the rotated previous generation is
  // intact, so restore succeeds from it - and the run is still
  // bit-identical (it just resumes from one step earlier).
  std::string Bytes;
  ASSERT_TRUE(support::readFile(Path, Bytes));
  Bytes[Bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(support::atomicWriteFile(Path, Bytes));

  Record Resumed =
      run(steppedProgram(), Cfg, /*Traced=*/true, restoreFrom(Path));
  EXPECT_EQ(diffHost(Full, Resumed), "");
  EXPECT_GE(Resumed.metric("ckpt.restore.fallbacks"), 1.0);
  removeGenerations(Path);
}

TEST_F(CheckpointDamageTest, FailsCleanlyWhenEveryGenerationIsDamaged) {
  std::string Path = tempPath("ck.bin");
  removeGenerations(Path);
  writeGenerations(Path);

  for (const std::string &P :
       {Path, Path + ".1", Path + ".2"}) {
    std::string Bytes;
    ASSERT_TRUE(support::readFile(P, Bytes));
    Bytes[Bytes.size() / 2] ^= 0x01;
    ASSERT_TRUE(support::atomicWriteFile(P, Bytes));
  }

  Record Resumed = runStepped(restoreFrom(Path));
  EXPECT_FALSE(Resumed.Ok);
  EXPECT_TRUE(Resumed.RestoreFailed);
  EXPECT_NE(Resumed.Diags.find("cannot restore"), std::string::npos)
      << Resumed.Diags;
  removeGenerations(Path);
}

TEST_F(CheckpointDamageTest, MissingRestoreFileFailsCleanly) {
  Record Resumed = runStepped(restoreFrom(tempPath("never_written.bin")));
  EXPECT_FALSE(Resumed.Ok);
  EXPECT_TRUE(Resumed.RestoreFailed);
  EXPECT_NE(Resumed.Diags.find("cannot restore"), std::string::npos);
}

TEST_F(CheckpointDamageTest, EmptyRestoreFileFailsCleanly) {
  std::string Path = tempPath("empty.bin");
  ASSERT_TRUE(support::atomicWriteFile(Path, ""));
  Record Resumed = runStepped(restoreFrom(Path));
  EXPECT_FALSE(Resumed.Ok);
  EXPECT_TRUE(Resumed.RestoreFailed);
  std::remove(Path.c_str());
}

TEST_F(CheckpointDamageTest, RejectsCheckpointFromDifferentProgram) {
  std::string Path = tempPath("ck.bin");
  removeGenerations(Path);
  writeGenerations(Path);

  Record Resumed = run("program other\n"
                       "real x(4)\n"
                       "integer t\n"
                       "x = 1.0\n"
                       "do t = 1, 3\n"
                       "  x = x + 1.0\n"
                       "end do\n"
                       "print *, sum(x)\n"
                       "end program other\n",
                       Cfg, false, restoreFrom(Path));
  EXPECT_FALSE(Resumed.Ok);
  EXPECT_TRUE(Resumed.RestoreFailed);
  removeGenerations(Path);
}

TEST_F(CheckpointDamageTest, RejectsCheckpointFromDifferentFaultConfig) {
  std::string Path = tempPath("ck.bin");
  removeGenerations(Path);
  writeGenerations(Path); // Fault-free run.

  Record Resumed = run(steppedProgram(), Cfg + Leg{{"-faults=corrupt:0.05"}},
                       false, restoreFrom(Path));
  EXPECT_FALSE(Resumed.Ok);
  EXPECT_TRUE(Resumed.RestoreFailed);
  removeGenerations(Path);
}

TEST_F(CheckpointDamageTest, CheckpointEveryNWritesEveryNth) {
  std::string Path = tempPath("ck.bin");
  removeGenerations(Path);
  runtime::ckpt::Options WriteOpts;
  WriteOpts.Path = Path;
  WriteOpts.Every = 3; // 8 steps -> checkpoints at steps 3 and 6.
  Record Full = runStepped(WriteOpts);
  ASSERT_TRUE(Full.Ok) << Full.Diags;
  EXPECT_EQ(Full.CheckpointsWritten, 2u);
  // Writes happen on the host between steps: the simulation is untouched.
  EXPECT_EQ(diffHost(runStepped(), Full), "");
  removeGenerations(Path);
}

} // namespace
