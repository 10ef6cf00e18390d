//===- nir/Symbol.h - Interned names of one compilation ---------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbol table of one compilation. NIRContext interns every name a
/// factory receives (variables, callees, domains, the program) into one
/// Symbol with a dense id, and nodes hold that Symbol: two nodes name the
/// same thing exactly when they hold the same Symbol, and the passes key
/// their tables by id (SymbolMap, SymbolSet) instead of by string. A
/// compilation's table is layered over its front end's (NIRContext.h).
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_NIR_SYMBOL_H
#define F90Y_NIR_SYMBOL_H

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace f90y {
namespace nir {

/// One interned name; Id counts up from zero in order of first use.
struct Symbol {
  std::string Name;
  uint32_t Id;
};

/// Owns the symbols of one compilation (NIRContext holds one). A table
/// layered over a base resolves the base's names to the base's symbols
/// and numbers its own from the base's count, so ids stay dense and
/// unique across both; the base must no longer change.
class SymbolTable {
public:
  explicit SymbolTable(const SymbolTable *Base = nullptr)
      : Base(Base), First(Base ? Base->size() : 0) {}

  const Symbol *find(std::string_view Name) const {
    if (const Symbol *S = Base ? Base->find(Name) : nullptr)
      return S;
    auto It = Index.find(Name);
    return It == Index.end() ? nullptr : It->second;
  }
  const Symbol *intern(std::string_view Name) {
    if (const Symbol *S = find(Name))
      return S;
    const Symbol &S = Syms.emplace_back(Symbol{std::string(Name), size()});
    Index.emplace(S.Name, &S);
    return &S;
  }
  /// The symbols of this table and its base: the next id.
  uint32_t size() const { return First + static_cast<uint32_t>(Syms.size()); }

private:
  const SymbolTable *Base;
  uint32_t First; ///< The base's count when layered.
  std::deque<Symbol> Syms; ///< Stable addresses; Index views their names.
  std::unordered_map<std::string_view, const Symbol *> Index;
};

/// A table indexed by symbol id: reads past the end see T{} (absent), and
/// writes grow it.
template <typename T> class SymbolMap {
public:
  T &operator[](const Symbol *S) {
    if (S->Id >= Slots.size())
      Slots.resize(S->Id + 1);
    return Slots[S->Id];
  }
  T lookup(const Symbol *S) const {
    return S->Id < Slots.size() ? Slots[S->Id] : T();
  }

private:
  std::vector<T> Slots;
};

/// A set of symbols as a bitset over ids.
class SymbolSet {
public:
  void insert(const Symbol *S) {
    size_t W = S->Id / 64;
    if (W >= Words.size())
      Words.resize(W + 1);
    Words[W] |= bit(S);
  }
  void erase(const Symbol *S) {
    if (S->Id / 64 < Words.size())
      Words[S->Id / 64] &= ~bit(S);
  }
  bool contains(const Symbol *S) const {
    return S->Id / 64 < Words.size() && (Words[S->Id / 64] & bit(S));
  }
  void unite(const SymbolSet &O) {
    if (O.Words.size() > Words.size())
      Words.resize(O.Words.size());
    for (size_t W = 0; W < O.Words.size(); ++W)
      Words[W] |= O.Words[W];
  }
  bool intersects(const SymbolSet &O) const {
    for (size_t W = 0; W < Words.size() && W < O.Words.size(); ++W)
      if (Words[W] & O.Words[W])
        return true;
    return false;
  }

private:
  static uint64_t bit(const Symbol *S) { return uint64_t(1) << (S->Id % 64); }
  std::vector<uint64_t> Words;
};

} // namespace nir
} // namespace f90y

#endif // F90Y_NIR_SYMBOL_H
