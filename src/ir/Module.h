//===- ir/Module.h - Module -------------------------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A module: the unit of "link-time optimization" in this reproduction. It
/// owns functions and global variables. The merging pass operates over a
/// whole module, mirroring the paper's LTO pipeline (Fig 16).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_IR_MODULE_H
#define SALSSA_IR_MODULE_H

#include "ir/Context.h"
#include "ir/Function.h"
#include <map>
#include <memory>

namespace salssa {

/// Owns functions and globals; belongs to a Context.
class Module {
public:
  Module(const std::string &Name, Context &Ctx) : Name(Name), Ctx(Ctx) {}
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;
  /// Tears down all function bodies before members destruct, so no
  /// instruction outlives the globals (or other values) it references.
  ~Module();

  const std::string &getName() const { return Name; }
  Context &getContext() { return Ctx; }

  /// Staging provenance: the merge pipeline marks its per-task scratch
  /// modules so commit-time checks can tell "speculative function still
  /// in a task's staging module" from "function in a real module"
  /// structurally (not by naming convention). Nothing else should set
  /// this.
  void setStaging(bool S) { Staging = S; }
  bool isStaging() const { return Staging; }

  /// Creates a function with fresh arguments from \p FnTy. The name must
  /// be unique within the module.
  Function *createFunction(const std::string &Name, Type *FnTy);

  /// Returns the named function or null.
  Function *getFunction(const std::string &Name) const;

  /// Removes and deletes \p F. The caller guarantees no call sites
  /// reference it.
  void eraseFunction(Function *F);

  /// Releases ownership of \p F without destroying it (the inverse of
  /// adoptFunction). The function keeps its body but has no parent until
  /// adopted elsewhere. Used by the merge pipeline to move speculative
  /// functions out of per-task staging modules.
  std::unique_ptr<Function> takeFunction(Function *F);

  /// Adopts \p F (previously released with takeFunction) under
  /// \p NewName, re-parenting it as if it had been created here.
  /// \p NewName must be unique within this module, and \p F must belong
  /// to the same Context.
  Function *adoptFunction(std::unique_ptr<Function> F,
                          const std::string &NewName);

  /// Creates a module-level variable of \p ValTy x \p NumElements and
  /// returns its address constant.
  GlobalVariable *createGlobal(const std::string &Name, Type *ValTy,
                               unsigned NumElements = 1);

  const std::vector<std::unique_ptr<GlobalVariable>> &globals() const {
    return Globals;
  }

  /// Functions in creation order.
  const std::vector<Function *> &functions() const { return FunctionOrder; }

  /// Total instruction count of all definitions.
  size_t getInstructionCount() const;

  /// Fresh name with the given prefix, unique within the module.
  std::string makeUniqueName(const std::string &Prefix);

  /// Snapshot / restore of the makeUniqueName counter. A long-lived
  /// session (merge/MergeService.h) re-plays its committed-merge name
  /// burns from a fixed base on every delta so that incremental name
  /// allocation stays byte-identical to a from-scratch run; nothing
  /// else should touch this.
  unsigned uniqueNameCounter() const { return NextUniqueId; }
  void setUniqueNameCounter(unsigned C) { NextUniqueId = C; }

private:
  std::string Name;
  Context &Ctx;
  std::map<std::string, std::unique_ptr<Function>> FunctionMap;
  std::vector<Function *> FunctionOrder;
  std::vector<std::unique_ptr<GlobalVariable>> Globals;
  unsigned NextUniqueId = 0;
  bool Staging = false;
};

/// Owns a set of modules whose functions may reference values across
/// module boundaries — the situation cross-module merging creates: a
/// merged function in the host module keeps operand references to the
/// input modules' globals, and thunks everywhere call into the host.
///
/// A lone Module handles teardown by clearing all of its bodies before
/// destroying its globals (see ~Module), but that protocol is per-module:
/// destroying cross-linked modules in the wrong order would drop operand
/// references into already-freed globals. ModuleGroup extends the
/// drop-then-delete protocol to the whole group: its destructor clears
/// every function body in every module first, and only then destroys the
/// modules — so member order (and hence destruction order) never
/// matters. Use it to own any module set handed to CrossModuleMerger.
class ModuleGroup {
public:
  ModuleGroup() = default;
  ModuleGroup(ModuleGroup &&) = default;
  /// Runs the group teardown protocol on the current members before
  /// adopting the new ones (a defaulted move-assign would destroy the
  /// old modules in member order — exactly the unsafe teardown this
  /// class exists to prevent).
  ModuleGroup &operator=(ModuleGroup &&Other);
  ModuleGroup(const ModuleGroup &) = delete;
  ModuleGroup &operator=(const ModuleGroup &) = delete;
  ~ModuleGroup();

  /// Takes ownership of \p M and returns a reference to it.
  Module &add(std::unique_ptr<Module> M);

  /// Moves every module of \p Other into this group, preserving order
  /// (\p Other is left empty). Used to assemble heterogeneous groups
  /// from independently built sub-groups (workloads/Suites.h).
  void adopt(ModuleGroup &&Other);

  size_t size() const { return Members.size(); }
  Module &operator[](size_t I) const { return *Members[I]; }
  const std::vector<std::unique_ptr<Module>> &modules() const {
    return Members;
  }

private:
  /// Clears every function body in every member (the first phase of the
  /// group-wide drop-then-delete protocol).
  void clearAllBodies();

  std::vector<std::unique_ptr<Module>> Members;
};

} // namespace salssa

#endif // SALSSA_IR_MODULE_H
