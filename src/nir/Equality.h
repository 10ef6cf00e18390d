//===- nir/Equality.h - Structural equality over NIR -------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural equality over NIR terms. NIR nodes are immutable trees with a
/// canonical printed form (nir/Printer.h), and two terms are structurally
/// equal exactly when their printed forms coincide. Names compare by symbol
/// (nir/Symbol.h), and values by number: ValueNumbering gives two values
/// one number exactly when they print alike, without printing them, which
/// is what the PE compiler's common-subexpression reuse keys on.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_NIR_EQUALITY_H
#define F90Y_NIR_EQUALITY_H

#include "nir/Printer.h"
#include "nir/Value.h"

#include <initializer_list>
#include <unordered_map>

namespace f90y {
namespace nir {

/// Dense structural value numbers. A number is kind/op, the child numbers,
/// the symbol id, and a constant's type and bits; numbers belong to one
/// ValueNumbering.
class ValueNumbering {
public:
  unsigned number(const Value *V);

  /// True when the value numbered \p VN names \p S: an AVAR or SVAR id, a
  /// FCNCALL callee or a local_under domain (every name its print quotes).
  bool mentions(unsigned VN, const Symbol *S) const;

private:
  struct Key {
    uint32_t Tag, A, B;
    uint64_t Bits;
    bool operator==(const Key &) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const;
  };

  /// The number of \p K; a new number mentions \p Own and what \p Parts
  /// mention.
  unsigned intern(Key K, std::initializer_list<unsigned> Parts = {},
                  const Symbol *Own = nullptr);
  unsigned numberAction(const FieldAction *F);

  std::unordered_map<Key, unsigned, KeyHash> Numbers;
  std::unordered_map<const Value *, unsigned> Memo;
  std::unordered_map<std::string, unsigned> Strings;
  /// The sorted symbol ids number N mentions are Pool[Begin[N], Begin[N+1]).
  std::vector<uint32_t> Pool;
  std::vector<uint32_t> Begin = {0};
};

inline bool valuesEqual(const Value *A, const Value *B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  ValueNumbering VN;
  return VN.number(A) == VN.number(B);
}

inline bool impsEqual(const Imp *A, const Imp *B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  return printImp(A) == printImp(B);
}

} // namespace nir
} // namespace f90y

#endif // F90Y_NIR_EQUALITY_H
