// Prefetch feedback (paper §4, future work): the experiment knows which
// memory references cause the cache misses, so the analyzer can write a
// feedback file naming (function, line, structure, member); a recompilation
// can then insert prefetch instructions for those references. Nothing reads
// the file back: bench/prefetch_feedback prints it, then recompiles with the
// arc-scan prefetch switched on directly.
#pragma once

#include <string>
#include <vector>

#include "analyze/analysis.hpp"

namespace dsprof::analyze {

struct FeedbackEntry {
  std::string function;
  u32 line = 0;
  std::string struct_name;  // empty for scalar references
  std::string member;
  double metric_value = 0;  // accumulated metric at this reference
  double share = 0;         // fraction of the metric's total
};

/// Extract hot memory references: validated trigger PCs whose `metric` share
/// exceeds `min_share`, with their data descriptors.
std::vector<FeedbackEntry> prefetch_feedback(const Analysis& a, size_t metric,
                                             double min_share = 0.02);

/// A "# ..." header line, then one line per entry:
/// "function line struct member share" ("-" for an empty struct or member).
std::string feedback_to_text(const std::vector<FeedbackEntry>& entries);

}  // namespace dsprof::analyze
