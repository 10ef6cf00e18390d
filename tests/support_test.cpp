//===- tests/support_test.cpp - support library unit tests -----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/FileIO.h"
#include "support/RtStatus.h"
#include "support/Serialize.h"
#include "support/SourceLocation.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

using namespace f90y;

namespace {

// A small hierarchy exercising the casting templates.
struct Animal {
  enum class Kind { Dog, Cat };
  Kind K;
  explicit Animal(Kind K) : K(K) {}
};
struct Dog : Animal {
  Dog() : Animal(Kind::Dog) {}
  static bool classof(const Animal *A) { return A->K == Kind::Dog; }
};
struct Cat : Animal {
  Cat() : Animal(Kind::Cat) {}
  static bool classof(const Animal *A) { return A->K == Kind::Cat; }
};

TEST(Casting, IsaDistinguishesKinds) {
  Dog D;
  Cat C;
  const Animal *AD = &D, *AC = &C;
  EXPECT_TRUE(isa<Dog>(AD));
  EXPECT_FALSE(isa<Cat>(AD));
  EXPECT_TRUE(isa<Cat>(AC));
  EXPECT_FALSE(isa<Dog>(AC));
}

TEST(Casting, DynCastReturnsNullOnMismatch) {
  Dog D;
  const Animal *A = &D;
  EXPECT_NE(dyn_cast<Dog>(A), nullptr);
  EXPECT_EQ(dyn_cast<Cat>(A), nullptr);
}

TEST(Casting, CastPreservesPointerIdentity) {
  Dog D;
  Animal *A = &D;
  EXPECT_EQ(cast<Dog>(A), &D);
}

TEST(Casting, DynCastOrNullToleratesNull) {
  const Animal *A = nullptr;
  EXPECT_EQ(dyn_cast_or_null<Dog>(A), nullptr);
}

TEST(SourceLocation, DefaultIsInvalid) {
  SourceLocation Loc;
  EXPECT_FALSE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "<unknown>");
}

TEST(SourceLocation, StrRendersLineColumn) {
  SourceLocation Loc(12, 7);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "12:7");
}

TEST(Diagnostics, CountsOnlyErrors) {
  DiagnosticEngine Diags;
  Diags.warning(SourceLocation(1, 1), "something mildly off");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLocation(2, 3), "something broken");
  Diags.note(SourceLocation(2, 4), "broken right here");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);
}

TEST(Diagnostics, StrFormatsLLVMStyle) {
  DiagnosticEngine Diags;
  Diags.error(SourceLocation(3, 9), "shape mismatch");
  EXPECT_EQ(Diags.str(), "error: 3:9: shape mismatch\n");
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine Diags;
  Diags.error(SourceLocation(), "boom");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(Diagnostics, StrRendersAllKindsInOrder) {
  DiagnosticEngine Diags;
  Diags.warning(SourceLocation(1, 2), "deprecated form");
  Diags.error(SourceLocation(3, 4), "bad shape");
  Diags.note(SourceLocation(3, 5), "declared here");
  EXPECT_EQ(Diags.str(), "warning: 1:2: deprecated form\n"
                         "error: 3:4: bad shape\n"
                         "note: 3:5: declared here\n");
  EXPECT_EQ(Diags.errorCount(), 1u);
}

TEST(Diagnostics, InvalidLocationOmitsPosition) {
  DiagnosticEngine Diags;
  Diags.error(SourceLocation(), "runtime condition with no source");
  EXPECT_EQ(Diags.str(), "error: runtime condition with no source\n");
}

TEST(Diagnostics, WarningsAloneLeaveEngineClean) {
  DiagnosticEngine Diags;
  Diags.warning(SourceLocation(5, 1), "unused variable");
  Diags.warning(SourceLocation(9, 2), "implicit conversion");
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 0u);
  EXPECT_EQ(Diags.diagnostics().size(), 2u);
  EXPECT_EQ(Diags.str(), "warning: 5:1: unused variable\n"
                         "warning: 9:2: implicit conversion\n");
}

TEST(RtStatus, OkByDefault) {
  support::RtStatus S;
  EXPECT_TRUE(S.isOk());
  EXPECT_TRUE(static_cast<bool>(S));
  EXPECT_EQ(S.code(), support::RtCode::Ok);
  EXPECT_EQ(S.str(), "ok");
}

TEST(RtStatus, FaultCarriesCodeAndMessage) {
  support::RtStatus S = support::RtStatus::fault(
      support::RtCode::CommFault, "cshift: link timed out");
  EXPECT_FALSE(S.isOk());
  EXPECT_FALSE(static_cast<bool>(S));
  EXPECT_EQ(S.code(), support::RtCode::CommFault);
  EXPECT_EQ(S.str(), "comm-fault: cshift: link timed out");
}

TEST(RtStatus, CodeNamesAreDistinct) {
  EXPECT_STREQ(support::rtCodeName(support::RtCode::DataCorrupt),
               "data-corrupt");
  EXPECT_STREQ(support::rtCodeName(support::RtCode::OutOfMemory),
               "out-of-memory");
  EXPECT_STREQ(support::rtCodeName(support::RtCode::StepLimit),
               "step-limit");
}

TEST(RtResult, HoldsValueOrStatus) {
  support::RtResult<int> Good(41);
  EXPECT_TRUE(Good.isOk());
  EXPECT_EQ(Good.value(), 41);

  support::RtResult<int> Bad(support::RtStatus::fault(
      support::RtCode::OutOfMemory, "heap exhausted"));
  EXPECT_FALSE(Bad.isOk());
  EXPECT_EQ(Bad.status().code(), support::RtCode::OutOfMemory);
}

TEST(RtStatusDeathTest, CheckFailedAbortsWithMessage) {
  EXPECT_DEATH(F90Y_CHECK(false, "the invariant text"),
               "the invariant text");
}

TEST(StringUtil, ToLowerUpper) {
  EXPECT_EQ(toLower("CShift"), "cshift");
  EXPECT_EQ(toUpper("cshift"), "CSHIFT");
  EXPECT_EQ(toLower(""), "");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, " + "), "a + b + c");
}

TEST(StringUtil, FormatDoubleRoundTrips) {
  for (double V : {0.0, 1.0, -2.5, 0.1, 1e20, 1.0 / 3.0}) {
    std::string S = formatDouble(V);
    EXPECT_EQ(std::stod(S), V) << "failed to round-trip " << S;
  }
}

TEST(StringUtil, IsDigits) {
  EXPECT_TRUE(isDigits("0123"));
  EXPECT_FALSE(isDigits(""));
  EXPECT_FALSE(isDigits("12a"));
  EXPECT_FALSE(isDigits("-1"));
}

TEST(ThreadPool, ChunkingCoversRangeOnce) {
  const int64_t N = 1000;
  support::ThreadPool Pool(4);
  // Chunks are disjoint, so distinct threads touch distinct indices.
  std::vector<int> Hits(static_cast<size_t>(N), 0);
  support::parallelChunks(&Pool, N,
                          [&](int64_t, int64_t Begin, int64_t End) {
                            for (int64_t I = Begin; I < End; ++I)
                              Hits[static_cast<size_t>(I)]++;
                          });
  for (int64_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[static_cast<size_t>(I)], 1) << "index " << I;
}

TEST(ThreadPool, ChunkDecompositionIsSizeOnly) {
  // The chunk count and size depend on N alone (never the thread count);
  // this is the root of the determinism contract.
  EXPECT_EQ(support::ThreadPool::numChunks(0), 0);
  EXPECT_EQ(support::ThreadPool::numChunks(1), 1);
  EXPECT_EQ(support::ThreadPool::chunkSize(1), 1);
  const int64_t N = 2048;
  int64_t CS = support::ThreadPool::chunkSize(N);
  int64_t Chunks = support::ThreadPool::numChunks(N);
  EXPECT_GE(Chunks * CS, N);
  EXPECT_LT((Chunks - 1) * CS, N);
}

TEST(ThreadPool, OrderedReduceBitIdenticalAcrossPools) {
  // A floating-point sum whose value depends on association order: any
  // pool (including none) must produce the exact same bits because the
  // chunk partials are combined in chunk-index order.
  const int64_t N = 12345;
  auto Map = [](int64_t Begin, int64_t End) {
    double S = 0;
    for (int64_t I = Begin; I < End; ++I)
      S += std::sqrt(static_cast<double>(I)) * 1e-3;
    return S;
  };
  auto Combine = [](double &Acc, double Part) { Acc += Part; };
  double Ref = support::reduceChunksOrdered<double>(nullptr, N, Map,
                                                    Combine);
  for (unsigned T : {1u, 2u, 3u, 8u}) {
    support::ThreadPool Pool(T);
    double Got =
        support::reduceChunksOrdered<double>(&Pool, N, Map, Combine);
    EXPECT_EQ(Ref, Got) << "thread count " << T;
  }
}

TEST(ThreadPool, NestedParallelRunsInline) {
  support::ThreadPool Pool(4);
  std::atomic<int64_t> Total{0};
  std::atomic<int64_t> Elsewhere{0};
  support::parallelChunks(
      &Pool, 256, [&](int64_t, int64_t Begin, int64_t End) {
        // Reentrant use from a worker must not deadlock; it degrades to
        // inline execution on the thread that runs the outer chunk.
        const std::thread::id Outer = std::this_thread::get_id();
        support::parallelChunks(&Pool, End - Begin,
                                [&](int64_t, int64_t B2, int64_t E2) {
                                  Total += E2 - B2;
                                  if (std::this_thread::get_id() != Outer)
                                    ++Elsewhere;
                                });
      });
  EXPECT_EQ(Total.load(), 256);
  EXPECT_EQ(Elsewhere.load(), 0) << "a nested chunk left its outer thread";
}

TEST(Serialize, Crc32KnownAnswer) {
  // The IEEE 802.3 check value; also pins byte order and the empty case.
  EXPECT_EQ(support::crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(support::crc32(std::string()), 0u);
  EXPECT_NE(support::crc32(std::string("a")),
            support::crc32(std::string("b")));
}

TEST(Serialize, ByteWriterReaderRoundTrip) {
  support::ByteWriter W;
  W.u8(0xab);
  W.u32(0xdeadbeef);
  W.u64(0x0123456789abcdefull);
  W.i64(-42);
  W.f64(-0.0);
  W.f64(std::numeric_limits<double>::quiet_NaN());
  W.str("hello");
  W.str("");

  support::ByteReader R(W.bytes());
  EXPECT_EQ(R.u8(), 0xab);
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(R.i64(), -42);
  double NegZero = R.f64();
  EXPECT_EQ(NegZero, 0.0);
  EXPECT_TRUE(std::signbit(NegZero)); // IEEE bits round-trip exactly.
  EXPECT_TRUE(std::isnan(R.f64()));
  EXPECT_EQ(R.str(), "hello");
  EXPECT_EQ(R.str(), "");
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(Serialize, ByteReaderLatchesOnTruncation) {
  support::ByteWriter W;
  W.u32(7);
  support::ByteReader R(W.bytes());
  EXPECT_EQ(R.u32(), 7u);
  EXPECT_EQ(R.u64(), 0u); // Past the end: zero value...
  EXPECT_FALSE(R.ok());   // ...and the failure latches...
  EXPECT_EQ(R.u8(), 0u);  // ...so every later read fails too.
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.skip(1));
}

TEST(Serialize, ByteReaderRejectsHugeStringLength) {
  // A corrupted length prefix must not read past the end.
  support::ByteWriter W;
  W.u64(~0ull);
  support::ByteReader R(W.bytes());
  EXPECT_EQ(R.str(), "");
  EXPECT_FALSE(R.ok());
}

TEST(FileIO, AtomicWriteReadRoundTrip) {
  std::string Path = ::testing::TempDir() + "f90y_fileio_test.bin";
  std::string Data("binary\0data\xff", 12);
  ASSERT_TRUE(support::atomicWriteFile(Path, Data));
  std::string Back;
  ASSERT_TRUE(support::readFile(Path, Back));
  EXPECT_EQ(Back, Data);
  // Overwrite in place: the old content is fully replaced.
  ASSERT_TRUE(support::atomicWriteFile(Path, "x"));
  ASSERT_TRUE(support::readFile(Path, Back));
  EXPECT_EQ(Back, "x");
  std::remove(Path.c_str());
}

TEST(FileIO, WriteFailureReportsErrorAndLeavesNoFile) {
  std::string Path =
      ::testing::TempDir() + "no_such_dir_f90y/x/y/out.bin";
  std::string Error;
  EXPECT_FALSE(support::atomicWriteFile(Path, "data", &Error));
  EXPECT_FALSE(Error.empty());
  std::string Back;
  EXPECT_FALSE(support::readFile(Path, Back));
}

TEST(FileIO, ConcurrentWritersToOnePathStayAtomic) {
  // Regression: the temporary name used to be Path + ".tmp." + pid, so
  // two threads in one process writing the same path shared a temporary
  // and could rename interleaved garbage into place. Now the name is
  // unique per call: under concurrent same-path writers the final file
  // must always be exactly one writer's complete payload.
  const std::string Path =
      ::testing::TempDir() + "f90y_fileio_concurrent.bin";
  constexpr int NumWriters = 8;
  constexpr int RoundsPerWriter = 25;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Writers;
  for (int W = 0; W < NumWriters; ++W)
    Writers.emplace_back([&, W] {
      // Distinct sizes per writer: a mixed file would be a wrong size.
      const std::string Payload(100 + W, static_cast<char>('a' + W));
      for (int R = 0; R < RoundsPerWriter; ++R)
        if (!support::atomicWriteFile(Path, Payload))
          ++Failures;
    });
  for (std::thread &T : Writers)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  std::string Back;
  ASSERT_TRUE(support::readFile(Path, Back));
  ASSERT_GE(Back.size(), 100u);
  ASSERT_LT(Back.size(), 100u + NumWriters);
  const char Expect = 'a' + static_cast<char>(Back.size() - 100);
  for (char C : Back)
    EXPECT_EQ(C, Expect);
  std::remove(Path.c_str());
  // No temporary litter: every .tmp sibling was renamed or removed.
  for (const auto &E :
       std::filesystem::directory_iterator(::testing::TempDir()))
    EXPECT_NE(
        E.path().filename().string().rfind("f90y_fileio_concurrent.bin.tmp.",
                                           0),
        0u);
}

TEST(FileIO, ReadMissingFileFails) {
  std::string Back, Error;
  EXPECT_FALSE(support::readFile(
      ::testing::TempDir() + "f90y_never_written.bin", Back, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ThreadPool, SingleThreadPoolWorks) {
  support::ThreadPool Pool(1);
  int64_t Sum = 0; // No synchronization needed: everything runs inline.
  support::parallelChunks(&Pool, 100,
                          [&](int64_t, int64_t Begin, int64_t End) {
                            for (int64_t I = Begin; I < End; ++I)
                              Sum += I;
                          });
  EXPECT_EQ(Sum, 99 * 100 / 2);
}

} // namespace
