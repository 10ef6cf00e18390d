//===- layout/LayoutDescriptor.h - Per-field alignment descriptor -*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layout descriptor assigned to every distributed field by alignment
/// inference (DESIGN.md Section 12). A descriptor is expressed relative to
/// the shape's canonical blockwise geometry:
///
///   AxisMap   logical axis d of the field is stored along geometry axis
///             AxisMap[d]. Empty means identity. The offset-only solver
///             shipped here never assigns a non-identity permutation (a
///             transpose edge pins its endpoints canonical instead), but
///             the descriptor, printer, and checkpoint format carry the
///             map so a future permuting solver is a data-compatible
///             change.
///   Offsets   the field element at zero-based logical coordinate x lives
///             at slot coordinate (x + Offsets) mod Extents. All-zero (or
///             empty) means canonical placement.
///   Replicated  reserved for scalar-broadcast replication; never set by
///             the current solver.
///
/// Descriptors ride on nir::SimpleDecl, host::AllocScopeStmt::FieldAlloc,
/// runtime::PeArray, and checkpoint FieldImages; keeping the struct
/// header-only avoids a link cycle between f90y_nir and f90y_layout.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_LAYOUT_LAYOUTDESCRIPTOR_H
#define F90Y_LAYOUT_LAYOUTDESCRIPTOR_H

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace f90y {
namespace layout {

/// Placement of one field relative to its shape's canonical geometry.
struct LayoutDescriptor {
  std::vector<int64_t> AxisMap;
  std::vector<int64_t> Offsets;
  bool Replicated = false;

  /// True when the descriptor denotes exactly the canonical placement.
  bool isCanonical() const {
    if (Replicated)
      return false;
    for (size_t D = 0; D < AxisMap.size(); ++D)
      if (AxisMap[D] != static_cast<int64_t>(D))
        return false;
    for (int64_t O : Offsets)
      if (O != 0)
        return false;
    return true;
  }

  /// True when the axis map is the identity (or elided).
  bool identityAxes() const {
    for (size_t D = 0; D < AxisMap.size(); ++D)
      if (AxisMap[D] != static_cast<int64_t>(D))
        return false;
    return true;
  }

  /// The offset along logical axis \p D (0 when elided).
  int64_t offsetAt(size_t D) const {
    return D < Offsets.size() ? Offsets[D] : 0;
  }

  /// Reduces every offset into [0, extent) so equal placements compare
  /// equal; drops all-zero vectors back to the elided canonical form.
  void normalize(const std::vector<int64_t> &Extents) {
    bool AnyOffset = false;
    for (size_t D = 0; D < Offsets.size(); ++D) {
      int64_t N = D < Extents.size() ? Extents[D] : 0;
      if (N > 0)
        Offsets[D] = ((Offsets[D] % N) + N) % N;
      AnyOffset |= Offsets[D] != 0;
    }
    if (!AnyOffset)
      Offsets.clear();
    if (identityAxes())
      AxisMap.clear();
  }

  bool operator==(const LayoutDescriptor &RHS) const {
    if (Replicated != RHS.Replicated)
      return false;
    size_t Rank = AxisMap.size() > RHS.AxisMap.size() ? AxisMap.size()
                                                      : RHS.AxisMap.size();
    for (size_t D = 0; D < Rank; ++D) {
      int64_t L = D < AxisMap.size() ? AxisMap[D] : static_cast<int64_t>(D);
      int64_t R =
          D < RHS.AxisMap.size() ? RHS.AxisMap[D] : static_cast<int64_t>(D);
      if (L != R)
        return false;
    }
    Rank = Offsets.size() > RHS.Offsets.size() ? Offsets.size()
                                               : RHS.Offsets.size();
    for (size_t D = 0; D < Rank; ++D)
      if (offsetAt(D) != RHS.offsetAt(D))
        return false;
    return true;
  }
  bool operator!=(const LayoutDescriptor &RHS) const {
    return !(*this == RHS);
  }

  /// Compact deterministic rendering, e.g. "axes=0,1;off=1,0;rep=0".
  /// Inverse of parse(); used by the NIR printer and the checkpoint
  /// layout signature.
  std::string str() const {
    std::string Out = "axes=";
    for (size_t D = 0; D < AxisMap.size(); ++D)
      Out.append(D ? "," : "").append(std::to_string(AxisMap[D]));
    Out += ";off=";
    for (size_t D = 0; D < Offsets.size(); ++D)
      Out.append(D ? "," : "").append(std::to_string(Offsets[D]));
    Out += ";rep=";
    Out += Replicated ? '1' : '0';
    return Out;
  }

  /// Parses the str() form. Returns false (leaving \p Out unspecified) on
  /// any malformed input.
  static bool parse(const std::string &Text, LayoutDescriptor &Out) {
    Out = LayoutDescriptor();
    auto ParseList = [](const std::string &Body, std::vector<int64_t> &Vec) {
      if (Body.empty())
        return true;
      size_t Pos = 0;
      while (Pos <= Body.size()) {
        size_t Comma = Body.find(',', Pos);
        std::string Item = Body.substr(
            Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
        if (Item.empty())
          return false;
        char *End = nullptr;
        long long V = std::strtoll(Item.c_str(), &End, 10);
        if (End != Item.c_str() + Item.size())
          return false;
        Vec.push_back(V);
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
      return true;
    };
    size_t OffPos = Text.find(";off=");
    size_t RepPos = Text.find(";rep=");
    if (Text.rfind("axes=", 0) != 0 || OffPos == std::string::npos ||
        RepPos == std::string::npos || OffPos > RepPos)
      return false;
    std::string Rep = Text.substr(RepPos + 5);
    if (Rep != "0" && Rep != "1")
      return false;
    Out.Replicated = Rep == "1";
    return ParseList(Text.substr(5, OffPos - 5), Out.AxisMap) &&
           ParseList(Text.substr(OffPos + 5, RepPos - OffPos - 5),
                     Out.Offsets);
  }
};

} // namespace layout
} // namespace f90y

#endif // F90Y_LAYOUT_LAYOUTDESCRIPTOR_H
