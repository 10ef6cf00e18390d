//===- perfbench/harness/Programs.h - benchmark program catalogue -*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every Fortran-90 program the benchmark runs, each under a stable name
/// that keys its oracle reference (a file under refs/). The execution
/// workloads use driver:: sources at the paper's 512x512 size; the gridops
/// stencil is generated here from a variant number the workload seed
/// selects; serve_mix draws small instances of all of them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Program {
  std::string Name;   ///< Oracle-reference key, e.g. "swe/n512/s6".
  std::string Source; ///< Fortran-90 text handed to the compiler.
  int64_t N = 0;      ///< Grid extent (fixed-size figures: as requested).
  int64_t Steps = 0;  ///< Timesteps (likewise).
};

enum class Kind { Swe, SweTemps, Mswe, Heat, Fig9, Fig10, Fig12, Gridops };

/// Number of distinct gridops stencils (the seed picks one modulo this).
constexpr unsigned GridopsVariants = 8;

/// The gridops stencil on an N x N grid: boundary-filled shifts
/// (eoshift), a router transpose, strided section copies, a reduction
/// along one dimension broadcast back with spread, and a WHERE-masked
/// update, every step. \p Variant fixes shift distances, the reduction
/// dimension and coefficients; the op mix and sizes do not depend on it.
std::string gridopsSource(int64_t N, int64_t Steps, unsigned Variant);

/// The program of \p K at grid \p N and \p Steps timesteps (ignored by the
/// fixed-size figure programs; \p Variant is used by gridops only).
Program makeProgram(Kind K, int64_t N, int64_t Steps, unsigned Variant = 0);

/// The full-size programs of the swe, mswe and gridops workloads.
Program sweWorkload();
Program msweWorkload();
Program gridopsWorkload(uint64_t Seed);

/// Every program serve_mix can draw: its reference set.
std::vector<Program> serveCatalogue();

/// serve_mix's parameter space (kept here so the catalogue and the job
/// stream generator agree).
extern const Kind ServeKinds[8];
extern const int64_t ServeGrids[4];
extern const int64_t ServeSteps[2];
constexpr unsigned ServeGridopsVariants = 4;

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H
