//===- runtime/RegionWalk.h - Block-at-a-time region walks ------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one data-movement primitive under every grid-comm op. A walk
/// visits a destination region one block at a time: a block is a
/// rectangle of one destination PE's subgrid, some slots along the last
/// dimension by some rows of the second-last, whose sources are evenly
/// spaced slots and rows of one source PE's subgrid, or else boundary
/// fill. This is the NEWS model of the CM runtime (paper Section 5.2),
/// where a shift moves whole sub-blocks between neighbouring PEs: a comm
/// op moves its data and counts its local elements, fills and wire hops
/// once per block, never once per element.
///
/// A RegionWalk derives its blocks; a WalkPlan records them once, with
/// the walk's exact totals, and replays them. The CM runtime keeps one
/// plan per distinct walk, so a time step's comm op repeats only its data
/// movement, as the fixed runtime calls of the paper's FE/NIR compiler do.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_RUNTIME_REGIONWALK_H
#define F90Y_RUNTIME_REGIONWALK_H

#include "runtime/Geometry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace f90y {
namespace runtime {

/// One dimension of a strided region: zero-based start, stride, count.
struct SectionDim {
  int64_t Start = 0;
  int64_t Stride = 1;
  int64_t Count = 0;

  auto operator<=>(const SectionDim &) const = default;
};

/// A strided box of one geometry's coordinates.
struct Region {
  const Geometry *Geo = nullptr;
  std::vector<SectionDim> Dims;

  /// The whole array.
  explicit Region(const Geometry &G);
  /// A section; it must lie inside the array.
  Region(const Geometry &G, std::vector<SectionDim> Dims);
};

/// One block of a walk: Rows rows of Len destination slots of PE DstPE,
/// slot i of row r at DstOff + r * DstRow + i * DstStep, whose sources are
/// the slots SrcOff + r * SrcRow + i * SrcStep of PE SrcPE or, when Fill is
/// set, lie past the source array's edge. Rows steps the second-last walk
/// dimension (a rank-1 walk has one row per block); visit a block row by
/// row.
struct Run {
  int64_t DstPE = 0, DstOff = 0, DstStep = 0, DstRow = 0;
  int64_t SrcPE = 0, SrcOff = 0, SrcStep = 0, SrcRow = 0;
  int64_t Len = 0, Rows = 1;
  bool Fill = false;
  const int64_t *Pos = nullptr; ///< Walk position of the block's first slot.
};

/// Visits a destination region one block at a time, PE by PE. Within a
/// PE the walk goes band by band, a band being the rows of one block, in
/// row-major position order; within a band, block by block along the last
/// dimension. An identity walk has one block per PE, whose rows are
/// visited in row-major order. The walk position p ranges over the
/// destination region's counts; source dimension j sits at
/// Start[j] + Stride[j] * p[From[j]], or at Start[j] when From[j] < 0,
/// displaced by Shift[j].
///
/// Construction checks that each source dimension has the count of the
/// walk dimension it follows (a Region checks that it lies inside its
/// array).
class RegionWalk {
public:
  /// An empty \p From is the identity. Shifted coordinates past the
  /// array's edge are boundary fill under \p EndOff and wrap otherwise.
  RegionWalk(Region Dst, Region Src, std::vector<int> From,
             std::vector<int64_t> Shift = {}, bool EndOff = false);

  const Geometry &dst() const { return *Dst.Geo; }
  const Geometry &src() const { return *Src.Geo; }
  /// The one source dimension the walk shifts, or -1 when it shifts none
  /// or several.
  int shiftAxis() const;
  /// The destination step of a block's slots and of its rows, the same
  /// for every block.
  int64_t dstStep() const;
  int64_t dstRow() const;

  /// Calls \p OnRun(const Run &) for every block in destination PEs
  /// [BeginPE, EndPE), in walk order.
  template <typename Fn>
  void forEachRun(int64_t BeginPE, int64_t EndPE, Fn &&OnRun) const;

private:
  Region Dst, Src;
  std::vector<int> From;
  std::vector<int64_t> Shift;
  bool EndOff = false;

  /// The region's positions [Lo, Hi) inside \p PE's block, per
  /// dimension; false when there are none.
  bool bounds(int64_t PE, std::vector<int64_t> &Lo,
              std::vector<int64_t> &Hi) const;
  /// The subgrid offset of walk position \p P.
  int64_t dstOffset(const std::vector<int64_t> &P) const;
  /// Fills \p R's source for the block starting at \p P and bounds its
  /// Len to at most \p Left and its Rows to at most R.Rows, so that every
  /// slot keeps its source block or stays fill. The source dimensions that
  /// follow the second-last walk dimension bound Rows; they do not move
  /// along a band, so Rows, bounded at the band's first block, holds for
  /// the whole band.
  void source(const std::vector<int64_t> &P, int64_t Left, Run &R) const;
};

template <typename Fn>
void RegionWalk::forEachRun(int64_t BeginPE, int64_t EndPE,
                            Fn &&OnRun) const {
  const size_t Rank = Dst.Dims.size(), Last = Rank - 1;
  std::vector<int64_t> Lo(Rank), Hi(Rank), P(Rank);
  Run R;
  R.Pos = P.data();
  R.DstStep = dstStep();
  R.DstRow = dstRow();
  for (R.DstPE = BeginPE; R.DstPE < EndPE; ++R.DstPE) {
    if (!bounds(R.DstPE, Lo, Hi))
      continue;
    std::copy(Lo.begin(), Lo.end(), P.begin());
    for (bool More = true; More;) {
      // One band: the PE's rows left along the second-last dimension,
      // as many as its first block's sources allow, cut into blocks
      // along the last.
      R.Rows = Last ? Hi[Last - 1] - P[Last - 1] : 1;
      for (R.DstOff = dstOffset(P); P[Last] < Hi[Last];
           P[Last] += R.Len, R.DstOff += R.Len * R.DstStep) {
        source(P, Hi[Last] - P[Last], R);
        OnRun(static_cast<const Run &>(R));
      }
      // Next band: step the second-last dimension past the band's rows,
      // then the outer dimensions' odometer; D wraps past 0 once every
      // band is done.
      P[Last] = Lo[Last];
      size_t D = Last;
      for (int64_t By = R.Rows; D-- > 0 && (P[D] += By) == Hi[D]; By = 1)
        P[D] = Lo[D];
      More = D < Last;
    }
  }
}

/// What fixes a walk, and so its plan: the two geometries (by address;
/// the runtime that owns them keeps them for its lifetime), the sections
/// (empty: the whole array), the map (empty: the identity), the shift and
/// the boundary.
struct WalkKey {
  const Geometry *Dst = nullptr, *Src = nullptr;
  std::vector<SectionDim> DstSec, SrcSec;
  std::vector<int> From;
  std::vector<int64_t> Shift;
  bool EndOff = false;

  /// The whole arrays; a section copy sets its sections afterwards.
  WalkKey(const Geometry &Dst, const Geometry &Src,
          std::vector<int> From = {}, std::vector<int64_t> Shift = {},
          bool EndOff = false)
      : Dst(&Dst), Src(&Src), From(std::move(From)), Shift(std::move(Shift)),
        EndOff(EndOff) {}

  auto operator<=>(const WalkKey &) const = default;
  /// The walk itself, checking its regions.
  RegionWalk walk() const;
};

/// A RegionWalk resolved into its blocks, kept per chunk of destination
/// PEs (the ThreadPool's fixed decomposition, so a chunk's blocks are the
/// ones the walk visits for that chunk's PEs, in walk order), plus the
/// walk's exact integer totals. Every sweep but the first replays the
/// recorded blocks; the first walks, records and moves in the same pass,
/// chunk by chunk, so it costs no extra pool job.
///
/// Recording joins what the walk's blocks leave split: a block whose rows
/// lie end to end on both sides becomes one row, and a block that goes on
/// where the chunk's previous one ends - the next slots of the same rows,
/// sources advancing at one step - extends it, across PEs too, since
/// indices are absolute. A joined block of one row visits its slots in
/// walk order; one of several rows visits them row by row, which a copy
/// or reduce-dim does not mind, and an identity walk, the full reduce's,
/// never joins blocks of several rows (each of its blocks is a PE's band,
/// so the next one never starts where a row of it ends).
class WalkPlan {
public:
  /// A block in 32 bytes, by absolute storage index: slot i of row r is
  /// Dst + r * dstRow() + i * dstStep() and reads Src + r * SrcRow +
  /// i * SrcStep, or is boundary fill when Src is negative.
  struct Block {
    int64_t Dst = 0;
    int64_t Src = 0;
    int32_t Len = 0, Rows = 1;
    int32_t SrcStep = 0, SrcRow = 0;

    bool fill() const { return Src < 0; }
  };

  /// An unresolved plan of \p W; the first sweep resolves it.
  explicit WalkPlan(RegionWalk W);

  int64_t dstStep() const { return DstStep; }
  int64_t dstRow() const { return DstRow; }
  /// Slots whose source is on their own PE, boundary fills included, and
  /// the wire hops of the others along the walk's shift axis (none when
  /// it has none): exact totals, known once the plan is resolved.
  int64_t local() const { return Local; }
  int64_t hops() const { return Hops; }
  /// Recorded blocks (0 until resolved).
  int64_t blocks() const;

  /// Calls \p OnBlock(int64_t Chunk, const Block &) for every block,
  /// chunk by chunk of destination PEs over \p Pool (inline when null),
  /// in walk order within a chunk.
  template <typename Fn> void sweep(support::ThreadPool *Pool, Fn &&OnBlock);

private:
  struct Totals {
    int64_t Local = 0, Hops = 0;
  };

  std::optional<RegionWalk> Walk; ///< Until the first sweep.
  int64_t DstPEs = 0, DstStep = 0, DstRow = 0;
  int HopAxis = -1;
  std::vector<std::vector<Block>> Chunks;
  int64_t Local = 0, Hops = 0;

  /// \p R as a block, counted into \p T.
  Block record(const Run &R, Totals &T) const;
  /// Extends \p Prev by \p B when B goes on where Prev ends.
  bool extend(Block &Prev, const Block &B) const;
  /// Adds the chunks' totals once every chunk is recorded.
  void finish(const std::vector<Totals> &Parts);
};

static_assert(sizeof(WalkPlan::Block) == 32, "a plan block is 32 bytes");

template <typename Fn>
void WalkPlan::sweep(support::ThreadPool *Pool, Fn &&OnBlock) {
  if (!Walk) { // Resolved: replay.
    support::parallelChunks(Pool, DstPEs, [&](int64_t C, int64_t, int64_t) {
      for (const Block &B : Chunks[static_cast<size_t>(C)])
        OnBlock(C, B);
    });
    return;
  }
  Chunks.assign(static_cast<size_t>(support::ThreadPool::numChunks(DstPEs)),
                {});
  std::vector<Totals> Parts(Chunks.size());
  support::parallelChunks(
      Pool, DstPEs, [&](int64_t C, int64_t Begin, int64_t End) {
        std::vector<Block> &Out = Chunks[static_cast<size_t>(C)];
        Totals &T = Parts[static_cast<size_t>(C)];
        // A block is swept once nothing more joins it, so the first sweep
        // moves the very blocks every replay will.
        Walk->forEachRun(Begin, End, [&](const Run &R) {
          const Block B = record(R, T);
          if (!Out.empty() && extend(Out.back(), B))
            return;
          if (!Out.empty())
            OnBlock(C, static_cast<const Block &>(Out.back()));
          Out.push_back(B);
        });
        if (!Out.empty())
          OnBlock(C, static_cast<const Block &>(Out.back()));
        Out.shrink_to_fit();
      });
  finish(Parts);
}

} // namespace runtime
} // namespace f90y

#endif // F90Y_RUNTIME_REGIONWALK_H
