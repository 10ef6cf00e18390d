//===- support/StringUtil.h - String helpers ---------------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers used throughout the compiler: case folding (Fortran
/// is case-insensitive), joining, and numeric formatting.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_SUPPORT_STRINGUTIL_H
#define F90Y_SUPPORT_STRINGUTIL_H

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace f90y {

/// ASCII lowercase copy of \p S. Fortran identifiers and keywords are
/// case-insensitive; the compiler canonicalizes to lowercase.
std::string toLower(std::string_view S);

/// ASCII uppercase copy of \p S.
std::string toUpper(std::string_view S);

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts, std::string_view Sep);

/// Concatenates \p Parts by appending. Build text with this rather than
/// `"text" + std::string`, which GCC 12 misreads as an overlapping copy
/// (-Wrestrict).
std::string cat(std::initializer_list<std::string_view> Parts);

/// Formats a double with enough precision to round-trip, trimming trailing
/// zeros ("2.5", "0.125", "1e+20").
std::string formatDouble(double V);

/// True if \p S consists only of ASCII decimal digits (and is non-empty).
bool isDigits(std::string_view S);

} // namespace f90y

#endif // F90Y_SUPPORT_STRINGUTIL_H
