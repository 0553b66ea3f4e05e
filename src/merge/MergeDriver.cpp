//===- merge/MergeDriver.cpp - Module-level function merging pass --------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "merge/MergeDriver.h"
#include "ir/Module.h"
#include "merge/CrossModuleMerger.h"
#include "transforms/Mem2Reg.h"
#include "transforms/Reg2Mem.h"
#include "transforms/Simplify.h"

using namespace salssa;

MergeDriverStats salssa::runFunctionMerging(Module &M,
                                            const MergeDriverOptions &Options) {
  // One module-level pass is a one-module session: the session owns the
  // FMSA pre/post passes, sharding, the structural-hash fast path and the
  // decision cache, so every merge takes the same path into the pipeline.
  CrossModuleMerger Session(Options);
  Session.addModule(M);
  return Session.run().Driver;
}

void salssa::runFMSAResidueOnly(Module &M) {
  Context &Ctx = M.getContext();
  for (Function *F : M.functions()) {
    if (F->isDeclaration())
      continue;
    demoteRegistersToMemory(*F, Ctx);
    promoteAllocasToRegisters(*F, Ctx);
    simplifyFunction(*F, Ctx);
  }
}
