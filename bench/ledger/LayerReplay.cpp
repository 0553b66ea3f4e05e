//===- bench/ledger/LayerReplay.cpp - Traced per-layer replay -----------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// The traced run's layer replay: on a fresh copy of the workload's inputs,
// every layer entry point is called once per unit of work inside its own
// span, so each layer's self time and call count come straight from the
// trace:
//
//   - every function: Fingerprint::compute, computeStructuralHash,
//     estimateFunctionSize;
//   - every entry: CandidateIndex::insert, then query with k = t;
//   - every recorded attempt whose two inputs are originals: linearize,
//     align, generate into a staging module, verify, discard;
//   - DecisionCache load and save on the file the cold rep wrote;
//   - the wire codec round trip (encode, frame, reassemble, decode) on the
//     recorded daemon traffic.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "align/Matcher.h"
#include "codesize/SizeModel.h"
#include "ir/Verifier.h"
#include "merge/CandidateIndex.h"
#include "merge/DecisionCache.h"
#include "merge/MergedFunctionGenerator.h"
#include "merge/StructuralHash.h"
#include "support/Serialization.h"
#include <cstdio>
#include <unordered_map>

using namespace salssa;

namespace ledger {

namespace {

void encodeHeader(ByteWriter &W, const WireRequestHeader &H) {
  encodeRequestHeader(W, H);
}
void encodeHeader(ByteWriter &W, const WireResponseHeader &H) {
  encodeResponseHeader(W, H);
}
bool decodeHeader(ByteReader &R, WireRequestHeader &H) {
  return decodeRequestHeader(R, H);
}
bool decodeHeader(ByteReader &R, WireResponseHeader &H) {
  return decodeResponseHeader(R, H);
}

/// One message through the whole codec: header + body encode, frame,
/// reassembly, header + body decode. Returns the frame size, 0 on any
/// mismatch.
template <typename Header, typename Body>
size_t codecRoundTrip(const Header &H, const Body &B) {
  Span S("service.protocol.codec");
  ByteWriter W;
  encodeHeader(W, H);
  B.encode(W);
  std::vector<uint8_t> Frame = encodeFrame(W.buffer());
  FrameAssembler Assembler;
  Assembler.feed(Frame.data(), Frame.size());
  std::vector<uint8_t> Payload;
  if (!Assembler.next(Payload) || Payload != W.buffer())
    return 0;
  ByteReader R(Payload.data(), Payload.size());
  Header DecodedHeader;
  Body Decoded;
  if (!decodeHeader(R, DecodedHeader) || !Decoded.decode(R) ||
      DecodedHeader.RequestId != H.RequestId)
    return 0;
  return Frame.size();
}

} // namespace

void runLayerReplay(const ReplayInputs &In, RunOutputs &Out) {
  Span Root("ledger.replay", UINT32_MAX);
  Context Ctx;
  ModuleGroup Group = In.Build(Ctx);
  std::vector<Module *> Mods = modsOf(Group);

  std::vector<Function *> Defs;
  std::vector<uint32_t> ModuleIds;
  std::unordered_map<std::string, Function *> ByName;
  for (size_t MI = 0; MI < Mods.size(); ++MI)
    for (Function *F : Mods[MI]->functions())
      if (!F->isDeclaration()) {
        Defs.push_back(F);
        ModuleIds.push_back(static_cast<uint32_t>(MI));
        ByName.emplace(F->getName(), F);
      }

  std::vector<Fingerprint> FPs(Defs.size());
  std::vector<StructuralHash> Hashes(Defs.size());
  uint64_t SizeSum = 0;
  for (size_t I = 0; I < Defs.size(); ++I) {
    {
      Span S("merge.fingerprint");
      FPs[I] = Fingerprint::compute(*Defs[I]);
    }
    {
      Span S("merge.structural_hash");
      Hashes[I] = computeStructuralHash(*Defs[I]);
    }
    {
      Span S("codesize.size_model");
      SizeSum += estimateFunctionSize(*Defs[I], In.Options.Arch);
    }
  }
  Out.Ops.check(SizeSum > 0, "layer replay found an empty pool");

  CandidateIndex Index;
  for (size_t I = 0; I < Defs.size(); ++I) {
    Span S("merge.candidate_index.insert");
    Index.insert(static_cast<uint32_t>(I), FPs[I], ModuleIds[I]);
  }
  for (size_t I = 0; I < Defs.size(); ++I) {
    Span S("merge.candidate_index.query");
    Index.query(FPs[I], In.Options.ExplorationThreshold,
                static_cast<uint32_t>(I));
  }

  // Staging module: declared after Group so it is torn down first.
  Module Staging("ledger.replay.staging", Ctx);
  const MergeCodeGenOptions CG = MergeCodeGenOptions::forTechnique(
      In.Options.Technique, In.Options.EnablePhiCoalescing);
  uint64_t Cells = 0;
  for (const auto &[N1, N2] : In.Pairs) {
    auto It1 = ByName.find(N1), It2 = ByName.find(N2);
    if (It1 == ByName.end() || It2 == ByName.end())
      continue; // a merged function: not an original of the fresh copy
    Function &F1 = *It1->second, &F2 = *It2->second;
    std::vector<SeqItem> Seq1, Seq2;
    {
      Span S("align.linearize");
      Seq1 = linearizeFunction(F1);
      Seq2 = linearizeFunction(F2);
    }
    Cells += uint64_t(Seq1.size()) * uint64_t(Seq2.size());
    AlignmentResult Alignment;
    {
      Span S("align.nw");
      Alignment = alignSequences(Seq1, Seq2, itemsMatch, CG.Alignment);
    }
    GeneratedMerge Gen;
    {
      Span S("merge.codegen");
      Gen = generateMergedFunction(F1, F2, Seq1, Seq2, Alignment, CG,
                                   F1.getName() + ".m", &Staging);
    }
    bool Clean = false;
    {
      Span S("ir.verifier");
      Clean = verifyFunction(*Gen.Merged).ok();
    }
    Out.Ops.check(Clean, "replayed merge of " + N1 + " and " + N2 +
                             " fails the verifier");
    Staging.eraseFunction(Gen.Merged);
  }

  double CacheKb = 0;
  if (!In.CachePath.empty()) {
    const uint64_t OptionsFP = DecisionCache::optionsFingerprint(In.Options);
    const std::string Copy = In.CachePath + ".replay";
    for (int K = 0; K < 5; ++K) {
      DecisionCache Cache;
      DecisionCache::LoadOutcome Loaded;
      {
        Span S("merge.decision_cache.load");
        Loaded = Cache.load(In.CachePath, OptionsFP, nullptr);
      }
      bool Saved;
      {
        Span S("merge.decision_cache.save");
        Saved = Cache.save(Copy, OptionsFP, nullptr);
      }
      Out.Ops.check(Loaded == DecisionCache::LoadOutcome::Loaded && Saved,
                    "decision cache load/save replay failed");
    }
    std::vector<uint8_t> Bytes;
    readFileBytes(In.CachePath, Bytes);
    CacheKb = double(Bytes.size()) / 1024.0;
    std::remove(Copy.c_str());
  }

  uint64_t FrameBytes = 0, Frames = 0;
  auto CountFrame = [&](size_t Bytes) {
    Out.Ops.check(Bytes > 0, "protocol codec round trip mismatch");
    FrameBytes += Bytes;
    ++Frames;
  };
  uint64_t RequestId = 1;
  for (const ApplyDeltaRequest &R : In.Requests)
    CountFrame(codecRoundTrip(
        WireRequestHeader{RequestKind::ApplyDelta, RequestId++, 0}, R));
  for (const ApplyDeltaResponse &R : In.Responses)
    CountFrame(codecRoundTrip(
        WireResponseHeader{RequestKind::ApplyDelta, RequestId++,
                           StatusCode::Ok},
        R));
  for (const QueryStatsResponse &R : In.StatsResponses)
    CountFrame(codecRoundTrip(
        WireResponseHeader{RequestKind::QueryStats, RequestId++,
                           StatusCode::Ok},
        R));

  // Layer time is span self time, per call.
  std::map<std::string, double> Self = Tracer::get().selfSeconds();
  std::map<std::string, uint64_t> Calls = Tracer::get().counts();
  MetricSink &L = Out.Layers;
  auto PerCall = [&](const char *Layer, const char *Metric, double Scale,
                     const char *Unit) {
    uint64_t N = Calls[Layer];
    L.set(Metric, N ? Self[Layer] * Scale / double(N) : 0, Unit, N);
  };
  PerCall("merge.fingerprint", "merge.fingerprint.us_per_fn", 1e6, "us");
  PerCall("merge.structural_hash", "merge.structural_hash.us_per_fn", 1e6,
          "us");
  PerCall("codesize.size_model", "codesize.size_model.us_per_fn", 1e6, "us");
  PerCall("merge.candidate_index.query", "merge.candidate_index.query_us",
          1e6, "us");
  PerCall("align.linearize", "align.linearize.us_per_pair", 1e6, "us");
  PerCall("merge.codegen", "merge.codegen.us_per_attempt", 1e6, "us");
  PerCall("ir.verifier", "ir.verifier.us_per_fn", 1e6, "us");
  L.set("align.nw.us_per_mcell",
        Cells ? Self["align.nw"] * 1e6 / (double(Cells) / 1e6) : 0, "us",
        Calls["align.nw"]);
  if (!In.CachePath.empty()) {
    PerCall("merge.decision_cache.load", "merge.decision_cache.load_ms", 1e3,
            "ms");
    PerCall("merge.decision_cache.save", "merge.decision_cache.save_ms", 1e3,
            "ms");
    L.set("merge.decision_cache.file_kb", CacheKb, "KB");
  }
  if (Frames) {
    PerCall("service.protocol.codec", "service.protocol.codec_us", 1e6, "us");
    L.set("service.protocol.frame_bytes", double(FrameBytes) / double(Frames),
          "bytes", Frames);
  }
}

const std::vector<std::pair<const char *, const char *>> &layerMetricTable() {
  static const std::vector<std::pair<const char *, const char *>> Table = {
      {"workloads.build_s", "s"},
      {"workloads.edit_step_ms", "ms"},
      {"merge.fingerprint.us_per_fn", "us"},
      {"merge.structural_hash.us_per_fn", "us"},
      {"merge.candidate_index.query_us", "us"},
      {"merge.candidate_index.distance_calls", "count"},
      {"merge.candidate_index.probes", "count"},
      {"align.linearize.us_per_pair", "us"},
      {"align.nw.cells", "count"},
      {"align.nw.us_per_mcell", "us"},
      {"align.nw.cpu_s", "s"},
      {"align.nw.match_ratio", "ratio"},
      {"merge.codegen.cpu_s", "s"},
      {"merge.codegen.us_per_attempt", "us"},
      {"merge.codegen.repair_slots", "count"},
      {"merge.attempt.count", "count"},
      {"merge.attempt.committed", "count"},
      {"merge.attempt.profitable_ratio", "ratio"},
      {"ir.verifier.us_per_fn", "us"},
      {"codesize.size_model.us_per_fn", "us"},
      {"merge.pipeline.cpu_util", "ratio"},
      {"merge.pipeline.speculative_attempts", "count"},
      {"merge.pipeline.speculative_discarded", "count"},
      {"merge.pipeline.useful_speculation_ratio", "ratio"},
      {"merge.pipeline.commit_conflicts", "count"},
      {"merge.pipeline.inline_reattempts", "count"},
      {"merge.shard.count", "count"},
      {"merge.shard.imbalance", "ratio"},
      {"merge.decision_cache.load_ms", "ms"},
      {"merge.decision_cache.save_ms", "ms"},
      {"merge.decision_cache.file_kb", "KB"},
      {"merge.decision_cache.hits", "count"},
      {"merge.decision_cache.skips", "count"},
      {"merge.service.apply_ms_p50", "ms"},
      {"merge.service.checkout_us", "us"},
      {"merge.service.dirty_class_ratio", "ratio"},
      {"merge.service.epoch_attempt_ratio", "ratio"},
      {"merge.service.epoch_pairing_ratio", "ratio"},
      {"merge.service.uncommitted_merges", "count"},
      {"merge.service.full_remerges", "count"},
      {"service.protocol.codec_us", "us"},
      {"service.protocol.frame_bytes", "bytes"},
      {"service.lease_wait_ms_p50", "ms"},
      {"service.lease_wait_ms_p90", "ms"},
      {"service.stats_rpc_p90_ms", "ms"},
      {"service.wire_overhead_ratio", "ratio"},
      {"service.client.retries", "count"},
      {"service.daemon.request_errors", "count"},
      {"interp.checked_calls", "count"},
      {"interp.mismatches", "count"},
  };
  return Table;
}

} // namespace ledger
