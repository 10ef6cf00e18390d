//===- tests/invariance/Generator.h - seeded Fortran programs ---*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One seeded generator of data-parallel programs for the invariance
/// harness. A program is three real fields a, b, c on an N x N grid, a
/// vector v and a scalar s, followed by idiom blocks drawn by the seed,
/// sometimes inside a three-step time loop (a step boundary for the
/// kill/restore variant). The idioms reach every NIR pass: single-use,
/// multi-use and dead temporaries and temporaries read under a shift
/// (fusion and its refusals), WHERE and strided sections (mask-sections),
/// chains of shifted copies and a neighbour-field block whose shifted
/// copies meet only each other (layout inference), a four-shift stencil of
/// one field along one axis (comm-schedule coalescing), eoshift,
/// transpose, sum along a dimension followed by spread, merge, max/min,
/// reductions and DO loops.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_TESTS_INVARIANCE_GENERATOR_H
#define F90Y_TESTS_INVARIANCE_GENERATOR_H

#include "invariance/Invariance.h"

#include <cstdint>
#include <string>
#include <vector>

namespace f90y {
namespace invariance {

/// One idiom: its statements and the declarations only it uses.
struct Block {
  std::string Decls;
  std::string Body;
};

struct Program {
  unsigned Seed = 0;
  int64_t N = 12;
  bool TimeLoop = false; ///< The blocks run inside `do t = 1, 3`.
  std::vector<Block> Blocks;

  std::string source() const;
  /// Statements in the blocks (END and ELSEWHERE lines not counted).
  unsigned statements() const;
};

Program generate(unsigned Seed);

/// check(generate(Seed).source(), M).Divergence, but a divergence comes
/// with the program shrunk: blocks are dropped one at a time, then the
/// time loop, while the check still fails with the same first line (the
/// same check on the same legs).
std::string checkGenerated(unsigned Seed, const Matrix &M);

} // namespace invariance
} // namespace f90y

#endif // F90Y_TESTS_INVARIANCE_GENERATOR_H
