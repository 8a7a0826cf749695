#include "analyze/feedback.hpp"

#include <sstream>

namespace dsprof::analyze {

std::vector<FeedbackEntry> prefetch_feedback(const Analysis& a, size_t metric,
                                             double min_share) {
  std::vector<FeedbackEntry> out;
  const double total = a.total()[metric];
  if (total <= 0) return out;
  const sym::SymbolTable& st = a.symtab();
  for (const auto& pc_row : a.pcs(metric)) {
    if (pc_row.artificial) continue;
    const double share = pc_row.mv[metric] / total;
    if (share < min_share) break;  // rows are sorted descending
    const sym::MemRef* ref = st.memref_for(pc_row.pc);
    if (!ref) continue;
    FeedbackEntry e;
    const sym::FuncInfo* f = st.find_function(pc_row.pc);
    e.function = f ? f->name : "?";
    e.line = st.line_for(pc_row.pc).value_or(0);
    if (ref->kind == sym::MemRef::Kind::StructMember) {
      const sym::Type& agg = st.types().get(ref->aggregate);
      e.struct_name = agg.name;
      e.member = agg.members[ref->member].name;
    }
    e.metric_value = pc_row.mv[metric];
    e.share = share;
    out.push_back(std::move(e));
  }
  return out;
}

std::string feedback_to_text(const std::vector<FeedbackEntry>& entries) {
  std::ostringstream os;
  os << "# dsprof prefetch feedback: function line struct member share\n";
  for (const auto& e : entries) {
    os << e.function << " " << e.line << " " << (e.struct_name.empty() ? "-" : e.struct_name)
       << " " << (e.member.empty() ? "-" : e.member) << " " << e.share << "\n";
  }
  return os.str();
}

}  // namespace dsprof::analyze
