// The seed's serial std::map/string fold (paper §2.3 attribution, one event
// at a time), kept outside the product as the equivalence oracle: the
// reduction tests render views from its result and from Reduction::run and
// require identical bytes, and the throughput benches use its rate as the
// machine-speed yardstick for their floors. It deliberately mirrors the
// seed's data structures (string-keyed ordered maps, a per-event
// vector<string> of frame names), so its cost profile is honest.
#pragma once

#include <vector>

#include "analyze/reduction.hpp"

namespace dsprof::oracle {

/// Reduce all events of `exps` (one binary) serially into the packed-key
/// result form, with func_names and sample_counts filled exactly as
/// analyze::Reduction::run fills them.
analyze::ReductionResult reduce(const std::vector<const experiment::Experiment*>& exps);

}  // namespace dsprof::oracle
