//===- nir/NIRContext.h - Ownership and factories for NIR nodes --*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// NIRContext owns every node of a NIR program (shapes, types, field
/// actions, values, declarations, imperatives) and provides the factory
/// methods used by the lowering phase and by NIR-to-NIR transformations.
/// Nodes are immutable once built; transformations construct new nodes for
/// what they change and share the rest (nir/Rewrite.h). Every name a factory
/// receives is interned once into the context's symbol table (nir/Symbol.h).
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_NIR_NIRCONTEXT_H
#define F90Y_NIR_NIRCONTEXT_H

#include "nir/Decl.h"
#include "nir/Imperative.h"
#include "nir/Shape.h"
#include "nir/Type.h"
#include "nir/Value.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace f90y {
namespace nir {

/// A factory's name argument: a spelling to intern, or a symbol already
/// interned by the same context.
class NameRef {
public:
  NameRef(const Symbol *S) : Sym(S) {}
  template <typename Str> NameRef(const Str &N) : Spelling(N) {}

private:
  friend class NIRContext;
  const Symbol *Sym = nullptr;
  std::string_view Spelling;
};

/// Owns NIR nodes and uniques the scalar types. All factory methods return
/// non-null pointers whose lifetime equals the context's.
class NIRContext {
public:
  NIRContext();
  ~NIRContext();
  NIRContext(const NIRContext &) = delete;
  NIRContext &operator=(const NIRContext &) = delete;

  /// The symbol of \p N in this compilation's symbol table.
  const Symbol *intern(NameRef N) {
    return N.Sym ? N.Sym : Symbols.intern(N.Spelling);
  }

  // Types.
  const ScalarType *getInteger32() const { return Int32Ty.get(); }
  const ScalarType *getLogical32() const { return Logical32Ty.get(); }
  const ScalarType *getFloat32() const { return Float32Ty.get(); }
  const ScalarType *getFloat64() const { return Float64Ty.get(); }
  const ScalarType *getScalarType(Type::Kind K) const;
  const DFieldType *getDField(const Shape *S, const Type *Elem);

  // Shapes.
  const PointShape *getPoint(int64_t V);
  const IntervalShape *getInterval(int64_t Lo, int64_t Hi);
  const IntervalShape *getSerialInterval(int64_t Lo, int64_t Hi);
  const ProdDomShape *getProdDom(std::vector<const Shape *> Dims);
  const DomainRefShape *getDomainRef(NameRef Name);

  // Field restrictors.
  const EverywhereAction *getEverywhere() const { return Everywhere.get(); }
  const SubscriptAction *getSubscript(std::vector<const Value *> Indices);
  const SectionAction *getSection(std::vector<SectionTriplet> Triplets);

  // Values.
  const BinaryValue *getBinary(BinaryOp Op, const Value *L, const Value *R);
  const UnaryValue *getUnary(UnaryOp Op, const Value *V);
  const SVarValue *getSVar(NameRef Id);
  const ScalarConstValue *getIntConst(int64_t V);
  const ScalarConstValue *getFloatConst(double V, bool Double = true);
  const ScalarConstValue *getBoolConst(bool V);
  const StrConstValue *getStrConst(std::string Str);
  const FcnCallValue *getFcnCall(NameRef Callee,
                                 std::vector<const Value *> Args);
  const AVarValue *getAVar(NameRef Id, const FieldAction *Action);
  const LocalCoordValue *getLocalCoord(NameRef Domain, unsigned Dim);

  /// The constant True guard used for unmasked MOVE clauses.
  const ScalarConstValue *getTrue() { return getBoolConst(true); }

  // Declarations.
  const SimpleDecl *getDecl(NameRef Id, const Type *Ty,
                            layout::LayoutDescriptor Layout = {});
  const DeclSet *getDeclSet(std::vector<const Decl *> Decls);

  // Imperatives.
  const ProgramImp *getProgram(NameRef Name, const Imp *Body);
  const SequentiallyImp *getSequentially(std::vector<const Imp *> Actions);
  const ConcurrentlyImp *getConcurrently(std::vector<const Imp *> Actions);
  const MoveImp *getMove(std::vector<MoveClause> Clauses);
  const IfThenElseImp *getIfThenElse(const Value *C, const Imp *T,
                                     const Imp *E);
  const WhileImp *getWhile(const Value *C, const Imp *Body);
  const WithDeclImp *getWithDecl(const Decl *D, const Imp *Body);
  const WithDomainImp *getWithDomain(NameRef Name, const Shape *S,
                                     const Imp *Body);
  const SkipImp *getSkip() const { return Skip.get(); }
  const DoImp *getDo(const Shape *IterSpace, const Imp *Body);
  const CallImp *getCall(NameRef Callee, std::vector<const Value *> Args);

  /// Returns a fresh domain name with the given prefix ("alpha.0",
  /// "alpha.1", ...); used by lowering to name implicit domains.
  const Symbol *freshDomainName(const std::string &Prefix);

private:
  /// Type-erased owner so one vector can hold shapes, types, values,
  /// declarations and imperatives (which share no common base).
  struct AnyNode {
    virtual ~AnyNode() = default;
  };
  template <typename T> struct NodeHolder final : AnyNode {
    template <typename... Args>
    explicit NodeHolder(Args &&...As) : Node(std::forward<Args>(As)...) {}
    T Node;
  };

  template <typename T, typename... Args> const T *make(Args &&...As) {
    auto Holder = std::make_unique<NodeHolder<T>>(std::forward<Args>(As)...);
    const T *Raw = &Holder->Node;
    Nodes.push_back(std::move(Holder));
    return Raw;
  }

  std::vector<std::unique_ptr<AnyNode>> Nodes;
  SymbolTable Symbols;
  std::unique_ptr<ScalarType> Int32Ty, Logical32Ty, Float32Ty, Float64Ty;
  std::unique_ptr<EverywhereAction> Everywhere;
  std::unique_ptr<SkipImp> Skip;
  unsigned NextDomainId = 0;
};

} // namespace nir
} // namespace f90y

#endif // F90Y_NIR_NIRCONTEXT_H
