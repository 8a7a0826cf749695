#include "sa/verifier.hpp"

#include <iomanip>
#include <sstream>

#include "support/table.hpp"

namespace dsprof::sa {

using machine::TriggerKind;

VerifyReport verify(const sym::Image& img, const std::string& name,
                    const VerifyOptions& opt) {
  VerifyReport r;
  r.name = name;
  r.text_base = img.text_base;
  r.entry = img.entry;
  r.text_words = img.text_words.size();
  r.num_functions = img.symtab.functions().size();
  r.hwcprof = img.symtab.hwcprof();
  r.has_branch_targets = img.symtab.has_branch_targets();
  r.num_branch_targets = img.symtab.branch_targets().size();

  const Cfg cfg = Cfg::build(img);
  r.num_blocks = cfg.blocks().size();
  r.reachable_blocks = cfg.reachable_blocks();
  r.num_edges = cfg.num_edges();
  for (size_t w = 0; w < r.text_words; ++w) {
    const u64 pc = img.text_base + 4 * w;
    r.reachable_instrs += cfg.instr_reachable(pc) ? 1 : 0;
    r.delay_slots += cfg.is_delay_slot(pc) ? 1 : 0;
  }

  const BacktrackTable table = BacktrackTable::build(img, opt.backtrack_window);
  r.backtrack_window = opt.backtrack_window;
  r.table_bytes = table.size_bytes();
  r.load_found = table.count_found(TriggerKind::Load);
  r.load_ea_static = table.count_ea_static(TriggerKind::Load);
  r.loadstore_found = table.count_found(TriggerKind::LoadStore);
  r.loadstore_ea_static = table.count_ea_static(TriggerKind::LoadStore);

  const AttributionCoverage cov = AttributionCoverage::build(img, cfg, table);
  r.mem_ops = cov.mem_ops().size();
  r.reachable_mem_ops = cov.reachable_mem_ops();
  r.attributable = cov.attributable();
  r.coverage_fraction = cov.fraction();
  if (opt.coverage) {
    r.coverage_detail = true;
    r.func_coverage = cov.by_function(img);
    const ProgramFacts pf = ProgramFacts::build(img, cfg);
    const LoopAnalysis la = LoopAnalysis::build(pf, img);
    r.loops = la.loops();
    r.irreducible = la.irreducible();
  }

  r.diags = lint(img, cfg, table, opt.lint);
  return r;
}

std::string to_text(const VerifyReport& r) {
  std::ostringstream os;
  os << "s3verify: " << r.name << "\n";
  os << "  text: " << r.text_words << " instructions at 0x" << std::hex << r.text_base
     << ", entry 0x" << r.entry << std::dec << ", " << r.num_functions << " functions\n";
  os << "  tables: hwcprof=" << (r.hwcprof ? "yes" : "no")
     << " branch-targets=" << (r.has_branch_targets ? std::to_string(r.num_branch_targets)
                                                    : std::string("absent"))
     << "\n";
  os << "  cfg: " << r.num_blocks << " blocks (" << r.reachable_blocks << " reachable), "
     << r.num_edges << " edges, " << r.reachable_instrs << "/" << r.text_words
     << " instructions reachable, " << r.delay_slots << " delay slots\n";
  const size_t pcs = r.text_words + 1;
  os << "  backtrack table: window " << r.backtrack_window << ", " << r.table_bytes
     << " bytes for " << pcs << " delivered PCs\n";
  os << "    load triggers:      " << r.load_found << " resolvable, " << r.load_ea_static
     << " with static EA\n";
  os << "    load+store triggers: " << r.loadstore_found << " resolvable, "
     << r.loadstore_ea_static << " with static EA\n";
  os << "  coverage: " << r.attributable << "/" << r.reachable_mem_ops
     << " reachable memory ops statically attributable ("
     << std::fixed << std::setprecision(1) << r.coverage_fraction * 100.0
     << "%)\n";
  os.unsetf(std::ios::fixed);
  os << std::setprecision(6);
  if (r.coverage_detail) {
    for (const auto& f : r.func_coverage) {
      os << "    " << f.name << ": " << f.attributable << "/" << f.reachable_mem_ops
         << " attributable";
      if (f.mem_ops != f.reachable_mem_ops) {
        os << " (" << f.mem_ops - f.reachable_mem_ops << " unreachable)";
      }
      os << "\n";
    }
    os << "  loops: " << r.loops.size()
       << (r.irreducible ? " (irreducible edges skipped)" : "") << "\n";
    for (const auto& l : r.loops) {
      os << "    head 0x" << std::hex << l.head_pc << std::dec << " depth " << l.depth
         << ", " << l.blocks.size() << " block(s)"
         << (l.function.empty() ? "" : " in '" + l.function + "'") << "\n";
      for (const auto& m : l.mem_refs) {
        os << "      0x" << std::hex << m.pc << std::dec << " "
           << (m.is_load ? "load" : (m.is_store ? "store" : "prefetch")) << " stride ";
        if (m.has_stride) {
          os << (m.stride >= 0 ? "+" : "") << m.stride;
        } else {
          os << "?";
        }
        os << "\n";
      }
    }
  }
  if (r.diags.empty()) {
    os << "  lint: clean\n";
  } else {
    os << "  lint: " << r.errors() << " error(s), " << r.warnings() << " warning(s)\n";
    for (const auto& d : r.diags) {
      os << "    " << severity_name(d.severity) << " [" << d.rule << "] 0x" << std::hex
         << d.pc << std::dec << ": " << d.message << "\n";
    }
  }
  os << "  verdict: " << (r.clean() ? "OK" : "FAIL") << "\n";
  return os.str();
}

std::string to_json(const VerifyReport& r) {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(r.name) << "\",\"text_base\":" << r.text_base
     << ",\"entry\":" << r.entry << ",\"text_words\":" << r.text_words
     << ",\"functions\":" << r.num_functions
     << ",\"hwcprof\":" << (r.hwcprof ? "true" : "false")
     << ",\"branch_targets\":" << (r.has_branch_targets ? "true" : "false")
     << ",\"num_branch_targets\":" << r.num_branch_targets << ",\"cfg\":{\"blocks\":"
     << r.num_blocks << ",\"reachable_blocks\":" << r.reachable_blocks
     << ",\"edges\":" << r.num_edges << ",\"reachable_instrs\":" << r.reachable_instrs
     << ",\"delay_slots\":" << r.delay_slots << "},\"backtrack_table\":{\"window\":"
     << r.backtrack_window << ",\"bytes\":" << r.table_bytes
     << ",\"load_found\":" << r.load_found << ",\"load_ea_static\":" << r.load_ea_static
     << ",\"loadstore_found\":" << r.loadstore_found
     << ",\"loadstore_ea_static\":" << r.loadstore_ea_static << "},\"coverage\":{"
     << "\"mem_ops\":" << r.mem_ops << ",\"reachable_mem_ops\":" << r.reachable_mem_ops
     << ",\"attributable\":" << r.attributable << ",\"fraction\":" << r.coverage_fraction;
  if (r.coverage_detail) {
    os << ",\"functions\":[";
    for (size_t i = 0; i < r.func_coverage.size(); ++i) {
      const auto& f = r.func_coverage[i];
      if (i) os << ",";
      os << "{\"name\":\"" << json_escape(f.name) << "\",\"lo\":" << f.lo << ",\"hi\":" << f.hi
         << ",\"mem_ops\":" << f.mem_ops << ",\"reachable_mem_ops\":" << f.reachable_mem_ops
         << ",\"attributable\":" << f.attributable << ",\"fraction\":" << f.fraction << "}";
    }
    os << "],\"irreducible\":" << (r.irreducible ? "true" : "false") << ",\"loops\":[";
    for (size_t i = 0; i < r.loops.size(); ++i) {
      const auto& l = r.loops[i];
      if (i) os << ",";
      os << "{\"head\":" << l.head_pc << ",\"depth\":" << l.depth
         << ",\"blocks\":" << l.blocks.size() << ",\"function\":\""
         << json_escape(l.function) << "\",\"mem_refs\":[";
      for (size_t j = 0; j < l.mem_refs.size(); ++j) {
        const auto& m = l.mem_refs[j];
        if (j) os << ",";
        os << "{\"pc\":" << m.pc << ",\"kind\":\""
           << (m.is_load ? "load" : (m.is_store ? "store" : "prefetch"))
           << "\",\"stride\":";
        if (m.has_stride) {
          os << m.stride;
        } else {
          os << "null";
        }
        os << "}";
      }
      os << "]}";
    }
    os << "]";
  }
  os << "},\"diagnostics\":[";
  for (size_t i = 0; i < r.diags.size(); ++i) {
    const Diag& d = r.diags[i];
    if (i) os << ",";
    os << "{\"severity\":\"" << severity_name(d.severity) << "\",\"pc\":" << d.pc
       << ",\"rule\":\"" << json_escape(d.rule) << "\",\"message\":\""
       << json_escape(d.message) << "\"}";
  }
  os << "],\"errors\":" << r.errors() << ",\"warnings\":" << r.warnings()
     << ",\"clean\":" << (r.clean() ? "true" : "false") << "}";
  return os.str();
}

}  // namespace dsprof::sa
