//===- perfbench/harness/Calibrate.cpp - machine-speed calibration ----------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed grid kernel timed just before and just after every timed sample.
/// The host the benchmark runs on is shared: its speed drifts by tens of
/// percent from second to second, and the drift moves the kernel and the
/// program alike. Dividing a sample by the mean of the two kernel times
/// around it removes most of that drift.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <thread>

using namespace perfbench;

namespace {

constexpr size_t Side = 512;
constexpr size_t Cells = Side * Side;
constexpr unsigned StencilSweeps = 80;
constexpr unsigned StreamSweeps = 48;

/// One thread's grids, allocated and touched once so no sample pays for
/// page faults.
struct Grids {
  std::vector<double> G[4];
  Grids() {
    for (int K = 0; K < 4; ++K)
      G[K].assign(Cells, 0.001 * (K + 1));
  }
};

/// A 5-point relaxation with wrap-around indexing (arithmetic-bound), then
/// row shifts with pointwise updates over four grids (bandwidth-bound): the
/// two kinds of work the programs' PEAC routines and grid shifts do, in
/// code no change to the compiler or runtime can touch.
double kernel(Grids &W) {
  std::vector<double> &A = W.G[0], &B = W.G[1];
  for (unsigned S = 0; S < StencilSweeps; ++S) {
    for (size_t R = 0; R < Side; ++R) {
      const size_t Up = ((R + Side - 1) % Side) * Side;
      const size_t Dn = ((R + 1) % Side) * Side;
      const size_t Row = R * Side;
      for (size_t J = 0; J < Side; ++J)
        B[Row + J] = 0.25 * (A[Row + (J + Side - 1) % Side] +
                             A[Row + (J + 1) % Side] + A[Up + J] + A[Dn + J]) -
                     0.5 * A[Row + J];
    }
    A.swap(B);
  }
  for (unsigned S = 0; S < StreamSweeps; ++S) {
    const double *X = W.G[S % 4].data();
    const double *Y = W.G[(S + 1) % 4].data();
    double *D = W.G[(S + 2) % 4].data();
    for (size_t I = 0; I < Cells - Side; ++I)
      D[I] = 0.5 * D[I] + 0.25 * (X[I + Side] + Y[I]);
    for (size_t I = Cells - Side; I < Cells; ++I)
      D[I] = 0.5 * D[I] + 0.25 * (X[I + Side - Cells] + Y[I]);
  }
  double Sum = 0;
  for (const std::vector<double> &G : W.G)
    Sum += G[Cells / 2];
  return Sum;
}

} // namespace

double perfbench::calibrate(unsigned Threads) {
  static std::vector<Grids> Slots;
  if (Slots.size() < Threads)
    Slots.resize(Threads);
  std::vector<double> Sums(Threads);
  const Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back([&Sums, T] { Sums[T] = kernel(Slots[T]); });
  Sums[0] = kernel(Slots[0]);
  for (std::thread &T : Pool)
    T.join();
  const double Wall = secondsSince(T0);
  for (double S : Sums)
    if (!std::isfinite(S))
      return -1;
  return Wall;
}
