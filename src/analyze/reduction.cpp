#include "analyze/reduction.hpp"

#include "obs/obs.hpp"

namespace dsprof::analyze {

namespace {

using experiment::EventStore;
using experiment::Experiment;

// Packed composite keys (documented in reduction.hpp).
constexpr u64 pc_key(u64 pc, bool artificial) { return (pc << 1) | (artificial ? 1 : 0); }
constexpr u64 edge_key(u32 caller, u32 callee) { return (u64{caller} << 32) | callee; }
constexpr u64 data_key(u8 cat, u32 sid) { return (u64{cat} << 32) | sid; }
constexpr u64 member_key(u32 sid, u32 member) { return (u64{sid} << 32) | member; }

// DataCat values, mirrored here to avoid a circular include with
// analysis.hpp (which owns the public enum). Kept in sync by
// static_asserts in analysis.cpp.
enum : u8 {
  kCatStruct = 0,
  kCatScalars = 1,
  kCatUnspecified = 2,
  kCatUnresolvable = 3,
  kCatUnascertainable = 4,
  kCatUnidentified = 5,
  kCatUnverifiable = 6,
};

/// Per-event attribution outcome tallies (paper §2.3 candidate validation).
/// Plain integers bumped inside the fold loop — sub-nanosecond next to the
/// fold itself — and flushed to obs counters once per fold() call, keeping
/// the per-event hot path free of atomics.
struct AttrOutcomes {
  u64 clock = 0;          // clock-profile samples (no data attribution)
  u64 validated = 0;      // candidate PC survived branch-target validation
  u64 branch_target = 0;  // a branch target intervened: artificial PC row
  u64 no_candidate = 0;   // no backtracking or no memory op in the window
  u64 unverifiable = 0;   // no branch-target info in the symbol tables

  void flush(u64 events_folded) const {
    static const obs::Counter c_folded = obs::counter("reduce.events.folded");
    static const obs::Counter c_clock = obs::counter("reduce.attr.clock");
    static const obs::Counter c_validated = obs::counter("reduce.attr.validated");
    static const obs::Counter c_branch = obs::counter("reduce.attr.branch_target");
    static const obs::Counter c_nocand = obs::counter("reduce.attr.no_candidate");
    static const obs::Counter c_unver = obs::counter("reduce.attr.unverifiable");
    c_folded.add(events_folded);
    if (clock != 0) c_clock.add(clock);
    if (validated != 0) c_validated.add(validated);
    if (branch_target != 0) c_branch.add(branch_target);
    if (no_candidate != 0) c_nocand.add(no_candidate);
    if (unverifiable != 0) c_unver.add(unverifiable);
  }
};

u32 func_id_for(const sym::SymbolTable& st, u64 pc, u32 unknown_id) {
  const sym::FuncInfo* f = st.find_function(pc);
  if (!f) return unknown_id;
  return static_cast<u32>(f - st.functions().data());
}

void merge_map(FlatHashU64Map<MetricCounts>& into, const FlatHashU64Map<MetricCounts>& from) {
  for (const auto& e : from.entries()) {
    MetricCounts& c = into[e.key];
    for (size_t m = 0; m < kNumMetrics; ++m) c[m] += e.value[m];
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// The radix fold: batch-level radix partitioning by aggregation key.
//
// A per-event fold pays a find_function per callstack frame, a line lookup,
// candidate validation against the branch-target table and half a dozen
// hash-map probes. Almost all of that work is a pure function of a
// small tuple that repeats enormously: the *decision* tuple
// (candidate_pc, delivered_pc, pic/event/flags) — a hot loop delivers
// thousands of events with identical tuples — and the *path* tuple
// (callstack, attributed leaf). The radix fold partitions each batch into
// dense ids over those tuples (the expensive classification runs once per
// unique tuple), accumulates weights into flat arrays indexed by id, and
// expands the dense accumulators into the hash-keyed ReductionResult once
// per fold call. The fold loop itself is fused over the product of the two
// tuples: a single hash probe per event against a cache of
// (decision ⊗ callstack) entries that carry their own accumulators, so the
// steady-state per-event cost is one cache line plus the column loads.
// Everything accumulated is a u64 sum, so the result is bit-identical to
// a per-event fold (the std::map oracle in tests/reduce_oracle.cpp) for any
// batching.

class RadixFolder {
 public:
  /// Bind a fold context (symbol table + per-event backtrack flags). Resets
  /// every cache: decisions depend on both, so a folder is rebound at
  /// experiment boundaries.
  void bind(const sym::SymbolTable* symtab,
            const std::array<bool, machine::kNumHwEvents>& backtrack_by_event, u32 unknown_id) {
    st_ = symtab;
    backtrack_by_event_ = backtrack_by_event;
    unknown_id_ = unknown_id;
    dec_slots_.clear();
    decs_.clear();
    dec_w_.clear();
    dec_n_.clear();
    touched_decs_.clear();
    fat_slots_.clear();
    fat_mask_ = 0;
    fats_.clear();  // entries embed decision ids, now invalid
  }

  /// Fold events [begin, end) of `ev` into `r`. Callstack identities are
  /// re-derived per call (handles are only meaningful within one store), so
  /// successive calls may pass different stores — the dsprofd batch path.
  void fold(ReductionResult& r, const experiment::EventStore& ev, size_t begin, size_t end,
            AttrOutcomes& oc);

 private:
  /// One classified event tuple: every per-event question the attribution
  /// pipeline asks, answered once. `cand`/`del`/`meta` are the exact key.
  struct Decision {
    u64 cand = 0;
    u64 del = 0;
    u32 meta = 0;  // pic | event << 8 | flags << 16
    // Precomputed attribution (classify's answers for this tuple).
    u64 pc_key = 0;
    u64 data_key = 0;
    u64 member_key = 0;
    u32 leaf = 0;
    u32 line = 0;
    u8 metric = 0;
    u8 outcome = 0;  // index into outcome_counts_ (AttrOutcomes order)
    bool has_line = false;
    bool has_data = false;
    bool has_member = false;
    bool emit_ea = false;
  };

  /// One unique (callstack handle, leaf) pair with its precomputed
  /// inclusive function ids (deduped, order of first appearance) and
  /// caller->callee edge keys (duplicates kept — recursion adds an edge's
  /// weight once per occurrence) pooled contiguously.
  struct PathInfo {
    u64 off = 0;
    u32 len = 0;
    u32 leaf = 0;
    u32 incl_begin = 0, incl_end = 0;
    u32 edge_begin = 0, edge_end = 0;
  };

  enum : u8 {
    kOutClock = 0,
    kOutValidated,
    kOutBranchTarget,
    kOutNoCandidate,
    kOutUnverifiable,
    kNumOutcomes,
  };

  /// One unique (decision tuple ⊗ callstack handle) pair — the fused fast
  /// path's unit of work. The fold loop makes a single hash probe per event
  /// against these and accumulates weight/count into the entry it just
  /// compared, so the per-event cost is one cache line plus the column
  /// loads; decisions and paths are only consulted on a miss. Sized to one
  /// cache line.
  struct FatEntry {
    u64 cand = 0;
    u64 del = 0;
    u64 off = 0;   // callstack handle (arena offset)
    u32 meta = 0;  // pic | event << 8 | flags << 16
    u32 len = 0;   // callstack length
    u32 did = 0;   // decision id
    u32 pid = 0;   // path id
    u64 w = 0;     // weight sum, consumed by flush()
    u64 n = 0;     // event count, consumed by flush()
    // Replayed answers copied from the decision so the hot loop never
    // touches decs_.
    u8 metric = 0;
    u8 outcome = 0;
    bool emit_ea = false;
  };

  u32 decision_id(u64 cand, u64 del, u32 meta) {
    u64 h = mix_u64(cand ^ mix_u64(del ^ (u64{meta} * 0x9e3779b97f4a7c15ULL)));
    for (;;) {
      u32& slot = dec_slots_[h];
      if (slot == 0) {
        const u32 id = classify(cand, del, meta);
        slot = id + 1;
        return id;
      }
      const Decision& d = decs_[slot - 1];
      if (d.cand == cand && d.del == del && d.meta == meta) return slot - 1;
      h = mix_u64(h + 0x9e3779b97f4a7c15ULL);
    }
  }

  /// The slow path: run the full §2.3 attribution pipeline for one tuple
  /// (candidate validation against branch targets, then the <Unknown>
  /// breakdown of §3.2.5); the dense fold then replays the cached answers
  /// for every event sharing the tuple.
  u32 classify(u64 cand, u64 del, u32 meta) {
    Decision d;
    d.cand = cand;
    d.del = del;
    d.meta = meta;
    const u8 pic = static_cast<u8>(meta & 0xff);
    const u8 flags = static_cast<u8>((meta >> 16) & 0xff);
    const bool has_candidate = (flags & experiment::EventStore::kHasCandidate) != 0;
    const bool has_ea = (flags & experiment::EventStore::kHasEa) != 0;

    auto set_code = [&](u64 pc, bool artificial) {
      d.pc_key = pc_key(pc, artificial);
      d.leaf = func_id_for(*st_, pc, unknown_id_);
      if (auto line = st_->line_for(pc)) {
        d.line = *line;
        d.has_line = true;
      }
    };
    auto set_data = [&](u8 cat, u32 sid) {
      d.data_key = data_key(cat, sid);
      d.has_data = true;
    };

    if (pic == machine::kClockPic) {
      d.metric = static_cast<u8>(kUserCpuMetric);
      d.outcome = kOutClock;
      set_code(del, false);
    } else {
      d.metric = static_cast<u8>((meta >> 8) & 0xff);
      const bool backtracked = pic < machine::kNumPics && backtrack_by_event_[d.metric];
      if (!backtracked || !has_candidate) {
        d.outcome = kOutNoCandidate;
        set_code(del, false);
        set_data(kCatUnresolvable, sym::kInvalidType);
      } else if (!st_->has_branch_targets()) {
        d.outcome = kOutUnverifiable;
        set_code(cand, false);
        set_data(kCatUnverifiable, sym::kInvalidType);
      } else if (auto target = st_->branch_target_in(cand, del)) {
        d.outcome = kOutBranchTarget;
        set_code(*target, true);
        set_data(kCatUnresolvable, sym::kInvalidType);
      } else {
        d.outcome = kOutValidated;
        set_code(cand, false);
        if (!st_->hwcprof()) {
          set_data(kCatUnascertainable, sym::kInvalidType);
        } else if (const sym::MemRef* ref = st_->memref_for(cand); ref == nullptr) {
          set_data(kCatUnspecified, sym::kInvalidType);
        } else {
          switch (ref->kind) {
            case sym::MemRef::Kind::Unidentified:
              set_data(kCatUnidentified, sym::kInvalidType);
              break;
            case sym::MemRef::Kind::Scalar:
              set_data(kCatScalars, sym::kInvalidType);
              break;
            case sym::MemRef::Kind::StructMember:
              set_data(kCatStruct, ref->aggregate);
              d.member_key = member_key(ref->aggregate, ref->member);
              d.has_member = true;
              break;
          }
          d.emit_ea = has_ea;  // an EA sample is kept only when hwcprof
                               // data and a memref are present
        }
      }
    }

    const u32 id = static_cast<u32>(decs_.size());
    decs_.push_back(d);
    dec_w_.push_back(0);
    dec_n_.push_back(0);
    return id;
  }

  u32 path_id(u64 off, u32 len, u32 leaf, const u64* arena) {
    u64 h = mix_u64(off ^ mix_u64((u64{len} << 32) | leaf));
    for (;;) {
      u32& slot = path_slots_[h];
      if (slot == 0) {
        const u32 id = build_path(off, len, leaf, arena);
        slot = id + 1;
        return id;
      }
      const PathInfo& p = paths_[slot - 1];
      if (p.off == off && p.len == len && p.leaf == leaf) return slot - 1;
      h = mix_u64(h + 0x9e3779b97f4a7c15ULL);
    }
  }

  /// Fat-tuple hash: one mix over independently-multiplied fields. Short
  /// dependency chain; quality only affects probe length (entries are
  /// verified by field compare, never by hash).
  static u64 fat_hash(u64 cand, u64 del, u64 off, u32 meta, u32 len) {
    return mix_u64(cand ^ (del * 0x9e3779b97f4a7c15ULL) ^ (off * 0xff51afd7ed558ccdULL) ^
                   (((u64{meta} << 32) | len) * 0xc4ceb9fe1a85ec53ULL));
  }

  /// Rebuild the fat slot array at `cap` slots (power of two) and reinsert
  /// every live entry. Slots hold fat id + 1 (0 = empty) with linear
  /// probing; the entries themselves are the keys, so a lookup is one slot
  /// load plus one entry line.
  void fat_rehash(size_t cap) {
    fat_slots_.assign(cap, 0);
    fat_mask_ = cap - 1;
    for (size_t id = 0; id < fats_.size(); ++id) {
      const FatEntry& e = fats_[id];
      size_t s = fat_hash(e.cand, e.del, e.off, e.meta, e.len) & fat_mask_;
      while (fat_slots_[s] != 0) s = (s + 1) & fat_mask_;
      fat_slots_[s] = static_cast<u32>(id + 1);
    }
  }

  /// Find the entry for this tuple, creating it on an empty slot.
  u32 fat_id(u64 cand, u64 del, u64 off, u32 meta, u32 len, const u64* arena) {
    size_t s = fat_hash(cand, del, off, meta, len) & fat_mask_;
    for (;;) {
      const u32 slot = fat_slots_[s];
      if (slot == 0) {
        const u32 fid = make_fat(cand, del, off, meta, len, arena);
        if (fats_.size() * 2 > fat_slots_.size()) {
          fat_rehash(fat_slots_.size() * 2);  // reinserts the new entry too
        } else {
          fat_slots_[s] = fid + 1;
        }
        return fid;
      }
      const FatEntry& e = fats_[slot - 1];
      if (e.cand == cand && e.del == del && e.off == off && e.meta == meta && e.len == len) {
        return slot - 1;
      }
      s = (s + 1) & fat_mask_;
    }
  }

  /// Fat-cache miss: resolve (or create) the decision and path for this
  /// tuple and snapshot the per-event answers into a new entry.
  u32 make_fat(u64 cand, u64 del, u64 off, u32 meta, u32 len, const u64* arena) {
    FatEntry e;
    e.cand = cand;
    e.del = del;
    e.off = off;
    e.meta = meta;
    e.len = len;
    e.did = decision_id(cand, del, meta);
    const Decision& d = decs_[e.did];
    e.pid = path_id(off, len, d.leaf, arena);
    e.metric = d.metric;
    e.outcome = d.outcome;
    e.emit_ea = d.emit_ea;
    const u32 id = static_cast<u32>(fats_.size());
    fats_.push_back(e);
    return id;
  }

  u32 build_path(u64 off, u32 len, u32 leaf, const u64* arena) {
    PathInfo p;
    p.off = off;
    p.len = len;
    p.leaf = leaf;
    frames_.clear();
    for (u32 j = 0; j < len; ++j) {
      frames_.push_back(func_id_for(*st_, arena[off + j], unknown_id_));
    }
    frames_.push_back(leaf);

    p.incl_begin = static_cast<u32>(incl_pool_.size());
    for (size_t i = 0; i < frames_.size(); ++i) {
      bool dup = false;
      for (size_t j = 0; j < i; ++j) dup |= frames_[j] == frames_[i];
      if (!dup) incl_pool_.push_back(frames_[i]);
    }
    p.incl_end = static_cast<u32>(incl_pool_.size());

    p.edge_begin = static_cast<u32>(edge_pool_.size());
    for (size_t i = 0; i + 1 < frames_.size(); ++i) {
      edge_pool_.push_back(edge_key(frames_[i], frames_[i + 1]));
    }
    p.edge_end = static_cast<u32>(edge_pool_.size());

    const u32 id = static_cast<u32>(paths_.size());
    paths_.push_back(p);
    path_mc_.push_back(MetricCounts{});
    return id;
  }

  /// Expand the dense accumulators into the hash-keyed result and zero them.
  void flush(ReductionResult& r) {
    // First expand the fat entries into the decision/path accumulators —
    // pure u64 sums, so the result is identical to per-event accumulation.
    for (const FatEntry& e : fats_) {
      if (dec_n_[e.did] == 0) touched_decs_.push_back(e.did);
      dec_n_[e.did] += e.n;
      dec_w_[e.did] += e.w;
      outcome_counts_[e.outcome] += e.n;
      r.sample_counts[e.metric] += e.n;
      path_mc_[e.pid][e.metric] += e.w;
    }
    for (const u32 id : touched_decs_) {
      const Decision& d = decs_[id];
      const u64 w = dec_w_[id];
      r.present[d.metric] = true;
      r.total[d.metric] += w;
      r.pc[d.pc_key][d.metric] += w;
      r.func[d.leaf][d.metric] += w;
      if (d.has_line) r.line[d.line][d.metric] += w;
      if (d.has_data) {
        r.data[d.data_key][d.metric] += w;
        r.data_total[d.metric] += w;
      }
      if (d.has_member) r.member[d.member_key][d.metric] += w;
      dec_w_[id] = 0;
      dec_n_[id] = 0;
    }
    touched_decs_.clear();
    // The path cache is per fold call, so every path is live.
    for (size_t p = 0; p < paths_.size(); ++p) {
      const MetricCounts& mc = path_mc_[p];
      const PathInfo& pi = paths_[p];
      for (u32 i = pi.incl_begin; i < pi.incl_end; ++i) {
        MetricCounts& c = r.incl[incl_pool_[i]];
        for (size_t m = 0; m < kNumMetrics; ++m) c[m] += mc[m];
      }
      for (u32 i = pi.edge_begin; i < pi.edge_end; ++i) {
        MetricCounts& c = r.edge[edge_pool_[i]];
        for (size_t m = 0; m < kNumMetrics; ++m) c[m] += mc[m];
      }
    }
  }

  const sym::SymbolTable* st_ = nullptr;
  std::array<bool, machine::kNumHwEvents> backtrack_by_event_{};
  u32 unknown_id_ = 0;

  // Decision cache: lives from bind() to bind().
  FlatHashU64Map<u32> dec_slots_;  // hashed tuple -> id + 1
  std::vector<Decision> decs_;
  std::vector<u64> dec_w_;  // dense weight sums, zeroed by flush()
  std::vector<u64> dec_n_;  // dense event counts, zeroed by flush()
  std::vector<u32> touched_decs_;

  // Path cache: lives for one fold() call (handles are store-relative).
  FlatHashU64Map<u32> path_slots_;
  std::vector<PathInfo> paths_;
  std::vector<u32> incl_pool_;
  std::vector<u64> edge_pool_;
  std::vector<MetricCounts> path_mc_;

  // Fat cache: one entry per unique (decision, callstack) pair, also
  // per-fold (it embeds store-relative path ids and callstack handles).
  // The slot array is managed directly (see fat_rehash) — kept at most
  // half full so the expected probe is a single slot load.
  std::vector<u32> fat_slots_;
  size_t fat_mask_ = 0;
  std::vector<FatEntry> fats_;

  std::vector<u32> frames_;  // scratch for build_path
  std::array<u64, kNumOutcomes> outcome_counts_{};
};

void RadixFolder::fold(ReductionResult& r, const experiment::EventStore& ev, size_t begin,
                       size_t end, AttrOutcomes& oc) {
  DSP_CHECK(st_ != nullptr, "RadixFolder::fold before bind");
  // Fresh path cache per call: callstack handles only identify stacks
  // within one store, and callers may pass a different store each call.
  path_slots_.clear();
  paths_.clear();
  incl_pool_.clear();
  edge_pool_.clear();
  path_mc_.clear();
  fats_.clear();
  fat_rehash(1024);

  // Hoisted SoA column pointers — the fold loop touches nothing else.
  const u8* pic = ev.pic_col().data();
  const u8* event = ev.event_col().data();
  const u8* flags = ev.flags_col().data();
  const u64* weight = ev.weight_col().data();
  const u64* del = ev.delivered_pc_col().data();
  const u64* cand = ev.candidate_pc_col().data();
  const u64* ea = ev.ea_col().data();
  const u64* cs_off = ev.cs_offset_col().data();
  const u32* cs_len = ev.cs_len_col().data();
  const u64* arena = ev.arena().data();

  // Fused fold: one probe against the fat cache per event, accumulating
  // weight and count into the entry the probe just compared. Decision
  // classification and path construction only run on a fat miss — and a
  // tuple's first event is always a fat miss, so decisions and paths are
  // created in exactly the order a per-event partition would create them.
  for (size_t i = begin; i < end; ++i) {
    const u32 meta = u32{pic[i]} | (u32{event[i]} << 8) | (u32{flags[i]} << 16);
    FatEntry& e = fats_[fat_id(cand[i], del[i], cs_off[i], meta, cs_len[i], arena)];
    const u64 w = weight[i];
    e.w += w;
    e.n += 1;
    if (e.emit_ea) r.ea_samples.push_back({ea[i], e.metric, static_cast<double>(w)});
  }

  flush(r);
  oc.clock += outcome_counts_[kOutClock];
  oc.validated += outcome_counts_[kOutValidated];
  oc.branch_target += outcome_counts_[kOutBranchTarget];
  oc.no_candidate += outcome_counts_[kOutNoCandidate];
  oc.unverifiable += outcome_counts_[kOutUnverifiable];
  outcome_counts_ = {};
}

// ---------------------------------------------------------------------------
// Reduction::run — the offline driver: one fold per experiment, then merge.

ReductionResult Reduction::run(const std::vector<const Experiment*>& exps,
                               const ReduceOptions& /*options*/) {
  DSP_CHECK(!exps.empty(), "no experiments to analyze");
  // One reducer per experiment: a reducer binds one experiment's symbols
  // and backtrack flags.
  std::vector<IncrementalReducer> reds;
  reds.reserve(exps.size());
  for (const auto* ex : exps) {
    reds.emplace_back(ex->image.symtab, ex->counters);
    reds.back().fold(ex->events, 0, ex->events.size());
  }
  static const obs::Histogram kMergeNs = obs::histogram("reduce.merge_ns");
  const obs::ScopedTimer merge_timer(kMergeNs);
  std::vector<const ReductionResult*> parts;
  for (const auto& red : reds) parts.push_back(&red.result());
  return merge_results(parts);
}

ReductionResult merge_results(const std::vector<const ReductionResult*>& parts) {
  DSP_CHECK(!parts.empty(), "no reductions to merge");
  ReductionResult r;
  // func_names are derived from the symbol table alone, so agreement is the
  // same-binary check Analysis makes on experiments, applied to results.
  for (const auto* p : parts) {
    if (r.func_names.empty()) r.func_names = p->func_names;
    DSP_CHECK(p->func_names.empty() || p->func_names == r.func_names,
              "merged reductions must come from the same binary");
  }
  for (const auto* p : parts) {
    for (size_t m = 0; m < kNumMetrics; ++m) {
      r.present[m] = r.present[m] || p->present[m];
      r.total[m] += p->total[m];
      r.data_total[m] += p->data_total[m];
      r.sample_counts[m] += p->sample_counts[m];
    }
    merge_map(r.pc, p->pc);
    merge_map(r.func, p->func);
    merge_map(r.incl, p->incl);
    merge_map(r.edge, p->edge);
    merge_map(r.line, p->line);
    merge_map(r.data, p->data);
    merge_map(r.member, p->member);
    r.ea_samples.insert(r.ea_samples.end(), p->ea_samples.begin(), p->ea_samples.end());
    r.events_reduced += p->events_reduced;
  }
  return r;
}

// ---------------------------------------------------------------------------
// IncrementalReducer — the fold behind Reduction::run, dsprofd sessions and
// the fleet view.

IncrementalReducer::IncrementalReducer(const sym::SymbolTable& symtab,
                                       const std::vector<experiment::CounterSpec>& counters)
    : symtab_(&symtab), folder_(std::make_unique<RadixFolder>()) {
  // Backtracking is keyed by event, not by PIC register: a multiplexed run
  // time-slices several counter sets onto the same registers, so a register
  // number no longer identifies a counter spec (for a single always-live
  // set the two keyings are equivalent — at most one spec per register).
  for (const auto& spec : counters) {
    backtrack_by_event_[static_cast<size_t>(spec.event)] = spec.backtrack;
  }
  unknown_id_ = static_cast<u32>(symtab.functions().size());
  // One bind for the reducer's lifetime: the symbol table and backtrack
  // flags are fixed per session, so the decision cache warms across batches.
  folder_->bind(symtab_, backtrack_by_event_, unknown_id_);
  // Function ids 0..N-1 in symbol-table order, then "<unknown code>".
  r_.func_names.reserve(symtab.functions().size() + 1);
  for (const auto& f : symtab.functions()) r_.func_names.push_back(f.name);
  r_.func_names.push_back("<unknown code>");
}

IncrementalReducer::~IncrementalReducer() = default;
IncrementalReducer::IncrementalReducer(IncrementalReducer&&) noexcept = default;
IncrementalReducer& IncrementalReducer::operator=(IncrementalReducer&&) noexcept = default;

void IncrementalReducer::fold(const experiment::EventStore& events, size_t begin,
                              size_t end) {
  DSP_CHECK(begin <= end && end <= events.size(), "fold range outside event store");
  static const obs::Histogram kFoldNs = obs::histogram("reduce.incremental.fold_ns");
  const obs::ScopedTimer timer(kFoldNs);
  AttrOutcomes oc;
  folder_->fold(r_, events, begin, end, oc);
  oc.flush(end - begin);
  r_.events_reduced += end - begin;
}

}  // namespace dsprof::analyze
