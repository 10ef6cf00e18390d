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

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <unordered_map>
#include <vector>

namespace f90y {
namespace nir {

/// Dense structural value numbers. A number is kind/op, the child numbers,
/// the symbol id, and a constant's type and bits; numbers belong to one
/// ValueNumbering.
class ValueNumbering {
public:
  /// Room for a typical PEAC routine's numbers up front: one allocation
  /// per table instead of one per doubling.
  ValueNumbering() {
    Pool.reserve(32);
    Begin.reserve(32);
    Begin.push_back(0);
  }

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
  struct ValueHash { // Aligned addresses: index by the product's high half.
    size_t operator()(const Value *V) const {
      return reinterpret_cast<uintptr_t>(V) * 0x9E3779B97F4A7C15ull >> 32;
    }
  };

  /// An open-addressing table from keys to numbers, at most half full:
  /// one allocation per doubling where a node map makes one per entry.
  template <typename K, typename Hash> class FlatTable {
  public:
    const unsigned *find(const K &Key) const {
      const Slot *S = Slots.empty() ? nullptr : &Slots[probe(Key)];
      return S && S->Full ? &S->Num : nullptr;
    }
    /// The number of \p Key, which becomes \p Num if it had none.
    unsigned insert(const K &Key, unsigned Num) {
      if (2 * (Used + 1) > Slots.size()) {
        std::vector<Slot> Old(std::max<size_t>(32, 2 * Slots.size()));
        Old.swap(Slots);
        for (const Slot &S : Old)
          if (S.Full)
            Slots[probe(S.Key)] = S;
      }
      Slot &S = Slots[probe(Key)];
      if (!S.Full) {
        S = {Key, Num, true};
        ++Used;
      }
      return S.Num;
    }

  private:
    struct Slot {
      K Key{};
      unsigned Num = 0;
      bool Full = false;
    };
    /// The slot of \p Key, or the free one where it would go.
    size_t probe(const K &Key) const {
      const size_t Mask = Slots.size() - 1;
      size_t I = Hash()(Key) & Mask;
      while (Slots[I].Full && !(Slots[I].Key == Key))
        I = (I + 1) & Mask;
      return I;
    }
    std::vector<Slot> Slots;
    size_t Used = 0;
  };

  /// The number of \p K; a new number mentions \p Own and what \p Parts
  /// mention.
  unsigned intern(Key K, std::initializer_list<unsigned> Parts = {},
                  const Symbol *Own = nullptr);
  unsigned numberAction(const FieldAction *F);

  FlatTable<Key, KeyHash> Numbers;
  FlatTable<const Value *, ValueHash> Memo;
  std::unordered_map<std::string, unsigned> Strings;
  /// The sorted symbol ids number N mentions are Pool[Begin[N], Begin[N+1]).
  std::vector<uint32_t> Pool;
  std::vector<uint32_t> Begin;
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
