// The analyzer's data-reduction core (paper §2.3): validate candidate
// trigger PCs against the branch-target table, attribute metrics to PCs /
// functions / source lines (code space) and to data-object types and members
// (data space), with the <Unknown> breakdown of §3.2.5:
//   (Unspecified)     compiler gave no symbolic reference for the trigger PC
//   (Unresolvable)    backtracking could not determine the trigger PC
//                     (blocked by an intervening branch target, or no memory
//                     op within the search window)
//   (Unascertainable) module not compiled with -xhwcprof
//   (Unidentified)    compiler did not identify the object (temporary)
//   (Unverifiable)    branch-target info inadequate to validate the trigger
//
// Analysis is an immutable value over one ReductionResult (reduction.hpp).
// The offline constructors run Reduction::run over the experiments; the
// precomputed constructors adopt a result the caller already folded. Every
// view computes its rows from that result when called and returns them by
// value; nothing is cached.
//
// Thread safety: nothing mutates after construction, so any number of
// threads may call the const accessors concurrently without a lock.
//
// Lifetime: the analyzed experiments must outlive the Analysis (it keeps
// pointers, not copies — experiments can hold millions of events).
#pragma once

#include <vector>

#include "analyze/metrics.hpp"
#include "analyze/reduction.hpp"
#include "experiment/experiment.hpp"

namespace dsprof::analyze {

/// Data-object categories (the <Unknown> children plus real objects).
enum class DataCat : u8 {
  Struct,
  Scalars,
  Unspecified,
  Unresolvable,
  Unascertainable,
  Unidentified,
  Unverifiable,
};

const char* data_cat_name(DataCat c);
bool data_cat_is_unknown(DataCat c);  // true for the five <Unknown> children

class Analysis {
 public:
  /// Analyze one or more experiments from the *same binary* together (the
  /// paper's MCF study combines two collect runs): reduces their events now.
  /// The experiments must outlive this Analysis.
  explicit Analysis(std::vector<const experiment::Experiment*> exps);
  explicit Analysis(const experiment::Experiment& ex)
      : Analysis(std::vector<const experiment::Experiment*>{&ex}) {}

  /// Wrap a *precomputed* reduction: views render from `precomputed`. This
  /// is the dsprofd snapshot path — the server folds batches into an
  /// IncrementalReducer as they arrive and hands a copy of the live
  /// aggregates here, so a snapshot renders the exact views an offline
  /// Analysis over the same events would (reduction.hpp documents why the
  /// two are bit-identical). `ex` supplies the image, clock, and
  /// allocation context and must outlive this Analysis.
  Analysis(const experiment::Experiment& ex, ReductionResult precomputed);

  /// Multi-experiment precomputed form: the fleet merged view. `exps`
  /// supply the combined rendering context exactly as the plain
  /// multi-experiment constructor would derive it — in particular the
  /// merged multiplexing scales — and `precomputed` is the merged
  /// reduction (merge_results over per-session reducer snapshots), so the
  /// rendered report is byte-identical to an offline multi-dir
  /// `er_print -J` over the same events.
  Analysis(std::vector<const experiment::Experiment*> exps, ReductionResult precomputed);

  const sym::SymbolTable& symtab() const { return image_->symtab; }
  const sym::Image& image() const { return *image_; }
  u64 clock_hz() const { return clock_hz_; }
  /// Cycles of the (first) profiled run.
  u64 run_cycles() const { return run_cycles_; }
  const std::vector<machine::AllocRecord>& allocations() const { return allocations_; }
  u64 page_size() const { return page_size_; }
  u64 ec_line_size() const { return ec_line_size_; }

  /// Which metrics have any data.
  const std::array<bool, kNumMetrics>& present() const { return r_.present; }

  // --- multiplexing renormalization -----------------------------------------
  /// True when any analyzed experiment time-sliced its counters across more
  /// than one set. Every metric view is then renormalized: a counter that was
  /// live for only live_cycles of total_cycles had its aggregates scaled by
  /// total/live to estimate full-run counts.
  bool multiplexed() const { return mpx_; }
  /// The scale applied to `metric`'s aggregates. Exactly 1.0 for a metric
  /// whose counter was live for the whole run — in particular for every
  /// metric of a non-multiplexed experiment, where scaling by 1.0 leaves the
  /// doubles bit-identical to the unscaled pipeline.
  double metric_scale(size_t metric) const { return scale_[metric]; }
  /// Standard error of `metric`'s scaled total under the sampling model: the
  /// total is a sum of n samples of weight `interval`, so its error is
  /// ~ scale * interval * sqrt(n) (clock samples use the clock interval).
  double metric_stderr(size_t metric) const;
  /// Convert raw integer aggregates to a rendered MetricVector, applying the
  /// per-metric multiplexing scale. The single conversion point every view
  /// goes through — renormalization happens here, never inside the integer
  /// reduction (which stays exact and engine-agnostic). Public so report
  /// renderers that read reduction aggregates directly share the scaling.
  MetricVector scaled(const MetricCounts& c) const;

  /// Grand totals per metric (the <Total> pseudo-function).
  const MetricVector& total() const { return total_; }
  /// Data-space grand totals (clock samples carry no data metrics).
  const MetricVector& data_total() const { return data_total_; }

  double seconds(double cycles) const { return cycles / static_cast<double>(clock_hz_); }

  // --- code-space views -----------------------------------------------------
  struct FunctionRow {
    std::string name;
    MetricVector mv{};
  };
  /// Exclusive metrics per function, descending by `sort_metric`.
  std::vector<FunctionRow> functions(size_t sort_metric) const;

  /// Inclusive metrics (exclusive + everything called from the function,
  /// via the recorded callstacks), descending by `sort_metric`.
  std::vector<FunctionRow> functions_inclusive(size_t sort_metric) const;

  /// Callers-callees view (paper §2.3: "to show callers and callees of a
  /// function, with information about how the performance metrics are
  /// attributed"). `attributed` is the weight flowing through that edge.
  struct EdgeRow {
    std::string name;
    MetricVector attributed{};
  };
  std::vector<EdgeRow> callers_of(const std::string& function) const;
  std::vector<EdgeRow> callees_of(const std::string& function) const;

  struct PcRow {
    u64 pc = 0;
    bool artificial = false;  // an inserted <branch target> PC
    MetricVector mv{};
  };
  std::vector<PcRow> pcs(size_t sort_metric) const;
  /// "refresh_potential + 0x000000D0" (paper Figure 5 naming).
  std::string pc_name(u64 pc) const;

  struct LineRow {
    u32 line = 0;
    std::string text;
    MetricVector mv{};
  };
  /// Annotated source of a function (paper Figure 3).
  std::vector<LineRow> annotated_source(const std::string& function) const;

  struct DisasmRow {
    u64 pc = 0;
    bool artificial = false;  // "<branch target>" marker row
    u32 line = 0;
    std::string text;        // disassembly, or "<branch target>"
    std::string data_annot;  // "{structure:node -}.{long orientation}"
    MetricVector mv{};
  };
  /// Annotated disassembly of a function (paper Figure 4).
  std::vector<DisasmRow> annotated_disassembly(const std::string& function) const;

  // --- data-space views -------------------------------------------------------
  struct DataObjectRow {
    DataCat cat = DataCat::Struct;
    sym::TypeId sid = sym::kInvalidType;
    std::string name;  // "{structure:arc -}", "(Unresolvable)", "<Scalars>"
    MetricVector mv{};
  };
  /// All data objects, descending by `sort_metric`. The <Unknown> aggregate
  /// is not included (it is the sum of the rows whose cat is an unknown).
  std::vector<DataObjectRow> data_objects(size_t sort_metric) const;

  struct MemberRow {
    u32 member = 0;
    u64 offset = 0;
    std::string name;  // "+56 {long orientation}"
    MetricVector mv{};
  };
  /// Member expansion of a struct data object (paper Figure 7), in layout
  /// (offset) order, including zero-metric members.
  std::vector<MemberRow> members(const std::string& struct_name) const;

  /// Backtracking effectiveness per hardware metric (§3.2.5): fraction of
  /// the metric's data-space total attributed to real objects, i.e.
  /// 1 - (Unresolvable + Unascertainable [+ Unverifiable]).
  struct EffectivenessRow {
    size_t metric = 0;
    double total = 0;
    double unresolved = 0;  // Unresolvable + Unascertainable + Unverifiable
    double effectiveness() const { return total == 0 ? 1.0 : 1.0 - unresolved / total; }
  };
  std::vector<EffectivenessRow> effectiveness() const;

  // --- address-space views (paper §4 future work) ----------------------------
  struct AddrRow {
    std::string name;
    u64 key = 0;
    MetricVector mv{};
  };
  /// Metrics by memory segment (text/data/heap/stack).
  std::vector<AddrRow> segments() const;
  /// Hottest pages / E$ lines by `sort_metric`.
  std::vector<AddrRow> pages(size_t sort_metric, size_t top_n) const;
  std::vector<AddrRow> cache_lines(size_t sort_metric, size_t top_n) const;
  /// Hottest allocated object instances (via the allocation log). `name` is
  /// the paper's "mcf_arena[k]" style: the allocating function (from the
  /// recorded allocation-site PC) with a per-function ordinal; "alloc[k]"
  /// when no site was recorded (legacy experiment files).
  struct InstanceRow {
    u64 base = 0, size = 0;
    u64 alloc_index = 0;
    std::string name;
    MetricVector mv{};
  };
  std::vector<InstanceRow> instances(size_t sort_metric, size_t top_n) const;

  /// Fraction of `count` objects of `obj_size` bytes starting at `base` that
  /// straddle an `line_size`-byte cache-line boundary (the paper's "28% of
  /// these 120-byte data objects end up split" statistic).
  static double split_fraction(u64 base, u64 obj_size, u64 count, u64 line_size);

  // --- per-access samples (src/opt/ feedback loop) ---------------------------
  /// One validated struct-member access: the trigger PC survived candidate
  /// validation (same rule as the reduction's fold), the image is hwcprof,
  /// and the compiler's descriptor names a structure member. `window` is a
  /// dense id of the (callstack, leaf function) the event was delivered
  /// under — er_opt's co-access affinity matrix counts members that share
  /// windows. `ea` is valid only when `has_ea` (address registers survived
  /// the skid); cache-line sharing reports require it, affinity does not.
  struct AccessSample {
    u64 trigger_pc = 0;
    u64 ea = 0;
    bool has_ea = false;
    u32 window = 0;
    sym::TypeId sid = sym::kInvalidType;
    u32 member = 0;
    size_t metric = 0;
    u64 weight = 0;
  };
  /// All validated struct-member accesses in event order, aggregated in one
  /// serial pass over the raw SoA columns (thread-count independent, so
  /// everything derived from it — the er_opt plan in particular — is too),
  /// and the number of distinct (callstack, leaf) windows they fall in.
  struct MemberAccesses {
    std::vector<AccessSample> samples;
    u32 windows = 0;
  };
  MemberAccesses member_accesses() const;

  /// Per-metric event (sample) counts, clock samples under kUserCpuMetric —
  /// the n behind the er_opt delta report's sampling-error estimate: a
  /// metric total is a sum of n samples of weight w, so its standard error
  /// is ~ w * sqrt(n). This is the reduction's own tally.
  const MetricCounts& sample_counts() const { return r_.sample_counts; }

  /// The reduction every view is computed from.
  const ReductionResult& result() const { return r_; }

 private:
  const std::string& func_name(u32 id) const { return r_.func_names[id]; }
  void compute_scales();

  std::vector<const experiment::Experiment*> exps_;
  const sym::Image* image_ = nullptr;
  u64 run_cycles_ = 0;
  u64 clock_hz_ = 900'000'000;
  u64 page_size_ = 8192;
  u64 ec_line_size_ = 512;
  std::vector<machine::AllocRecord> allocations_;
  /// Per-metric renormalization scales (all exactly 1.0 unless some
  /// experiment multiplexed), fixed at construction from the slice tables.
  std::array<double, kNumMetrics> scale_{};
  bool mpx_ = false;

  ReductionResult r_;
  MetricVector total_{};
  MetricVector data_total_{};
};

}  // namespace dsprof::analyze
