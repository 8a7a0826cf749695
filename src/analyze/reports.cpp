#include "analyze/reports.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/table.hpp"

namespace dsprof::analyze {

namespace {

using machine::HwEvent;

/// Canonical column order for listings (matches the paper's figures).
const size_t kColumnOrder[] = {
    kUserCpuMetric,
    static_cast<size_t>(HwEvent::EC_stall_cycles),
    static_cast<size_t>(HwEvent::EC_rd_miss),
    static_cast<size_t>(HwEvent::EC_ref),
    static_cast<size_t>(HwEvent::DTLB_miss),
    static_cast<size_t>(HwEvent::DC_rd_miss),
    static_cast<size_t>(HwEvent::DC_wr_miss),
    static_cast<size_t>(HwEvent::IC_miss),
    static_cast<size_t>(HwEvent::Instr_cnt),
    static_cast<size_t>(HwEvent::Cycle_cnt),
};

std::vector<size_t> present_columns(const Analysis& a) {
  std::vector<size_t> cols;
  for (size_t m : kColumnOrder) {
    if (a.present()[m]) cols.push_back(m);
  }
  return cols;
}

/// Two-line header like "Excl. E$\nStall Cycles sec. %".
std::string col_header(const Analysis&, size_t metric, bool with_seconds, bool with_pct) {
  std::string h = metric_name(metric);
  std::string units;
  if (metric_in_cycles(metric) && with_seconds) units = with_pct ? "sec.      %" : "sec.";
  else if (with_pct) units = "%";
  return h + (units.empty() ? "" : "\n" + units);
}

/// Format one metric cell: "sec. %" for cycle metrics, "%" for counts.
std::string metric_cell(const Analysis& a, const MetricVector& mv, const MetricVector& total,
                        size_t m, bool with_seconds, bool with_pct) {
  std::string s;
  if (metric_in_cycles(m) && with_seconds) {
    s += fmt_fixed(a.seconds(mv[m]), 3);
  }
  if (with_pct) {
    const double pct = total[m] > 0 ? mv[m] / total[m] : 0.0;
    if (!s.empty()) s += "  ";
    s += fmt_percent(pct);
  }
  if (s.empty()) s = fmt_count(static_cast<u64>(mv[m]));
  return s;
}

bool any_metric(const MetricVector& mv) {
  for (double v : mv) {
    if (v != 0) return true;
  }
  return false;
}

/// Renormalization note for a multiplexed run: one line per scaled metric,
/// "(Scaled ×1.97, ±1,234,567 se)". Empty (so every report is byte-identical
/// to the pre-multiplexing output) when nothing was scaled.
std::string mpx_note(const Analysis& a) {
  if (!a.multiplexed()) return "";
  std::ostringstream os;
  os << "Counter multiplexing: metrics renormalized by per-set live time:\n";
  for (size_t m : present_columns(a)) {
    if (a.metric_scale(m) == 1.0) continue;
    os << "  " << metric_name(m) << "  (Scaled x" << fmt_fixed(a.metric_scale(m), 2)
       << ", +/-" << fmt_count(static_cast<u64>(a.metric_stderr(m))) << " se)\n";
  }
  return os.str();
}

}  // namespace

std::string render_overview(const Analysis& a) {
  std::ostringstream os;
  const MetricVector& t = a.total();
  const double lwp = static_cast<double>(a.run_cycles()) / static_cast<double>(a.clock_hz());
  auto line = [&](const std::string& name, const std::string& value) {
    os << "  " << name;
    for (size_t i = name.size(); i < 36; ++i) os << ' ';
    os << value << "\n";
  };
  os << "Performance metrics for <Total>:\n";
  line("Exclusive Total LWP Time:", fmt_fixed(lwp, 3) + " secs.");
  if (a.present()[kUserCpuMetric]) {
    line("Exclusive User CPU Time:", fmt_fixed(a.seconds(t[kUserCpuMetric]), 3) + " secs.");
    line("Exclusive System CPU Time:", "0.000 secs.");
    line("Exclusive Wait CPU Time:", "0.000 secs.");
  }
  const auto es = static_cast<size_t>(HwEvent::EC_stall_cycles);
  if (a.present()[es]) {
    line("Exclusive E$ Stall Cycles:", fmt_fixed(a.seconds(t[es]), 3) + " secs.");
    line("    count", fmt_count(static_cast<u64>(t[es])));
  }
  const auto ecrm = static_cast<size_t>(HwEvent::EC_rd_miss);
  if (a.present()[ecrm]) line("Exclusive E$ Read Misses:", fmt_count(static_cast<u64>(t[ecrm])));
  const auto ecref = static_cast<size_t>(HwEvent::EC_ref);
  if (a.present()[ecref]) line("Exclusive E$ Refs:", fmt_count(static_cast<u64>(t[ecref])));
  const auto dtlb = static_cast<size_t>(HwEvent::DTLB_miss);
  if (a.present()[dtlb]) line("Exclusive DTLB Misses:", fmt_count(static_cast<u64>(t[dtlb])));

  // Derived observations the paper draws from Figure 1 (§3.2.1).
  if (a.present()[ecrm] && a.present()[ecref] && t[ecref] > 0) {
    line("E$ Read Miss rate:", fmt_percent(t[ecrm] / t[ecref]) + " %");
  }
  if (a.present()[es] && a.run_cycles() > 0) {
    line("E$ Stall fraction of run:", fmt_percent(t[es] / static_cast<double>(a.run_cycles())) + " %");
  }
  if (a.present()[dtlb] && a.run_cycles() > 0) {
    const double est_cycles = t[dtlb] * 100.0;  // 100-cycle DTLB miss estimate
    line("DTLB miss cost (est. 100 cyc):",
         fmt_fixed(a.seconds(est_cycles), 3) + " secs. (" +
             fmt_percent(est_cycles / static_cast<double>(a.run_cycles())) + " % of run)");
  }
  os << mpx_note(a);
  return os.str();
}

std::string render_function_list(const Analysis& a) {
  const auto cols = present_columns(a);
  std::vector<std::string> headers;
  std::vector<Align> aligns;
  for (size_t m : cols) {
    headers.push_back("Excl. " + col_header(a, m, true, true));
    aligns.push_back(Align::Right);
  }
  headers.push_back("Name");
  aligns.push_back(Align::Left);
  TextTable table(headers, aligns);

  const size_t sort = cols.empty() ? kUserCpuMetric : cols[0];
  auto add = [&](const std::string& name, const MetricVector& mv) {
    std::vector<std::string> cells;
    for (size_t m : cols) cells.push_back(metric_cell(a, mv, a.total(), m, true, true));
    cells.push_back(name);
    table.add_row(std::move(cells));
  };
  add("<Total>", a.total());
  for (const auto& f : a.functions(sort)) {
    if (any_metric(f.mv)) add(f.name, f.mv);
  }
  return table.render() + mpx_note(a);
}

std::string render_callers_callees(const Analysis& a, const std::string& function) {
  const auto cols = present_columns(a);
  std::vector<std::string> headers;
  std::vector<Align> aligns;
  for (size_t m : cols) {
    headers.push_back("Attr. " + col_header(a, m, true, true));
    aligns.push_back(Align::Right);
  }
  headers.push_back("Name");
  aligns.push_back(Align::Left);
  TextTable table(headers, aligns);

  auto add = [&](const std::string& name, const MetricVector& mv) {
    std::vector<std::string> cells;
    for (size_t m : cols) cells.push_back(metric_cell(a, mv, a.total(), m, true, true));
    cells.push_back(name);
    table.add_row(std::move(cells));
  };
  for (const auto& r : a.callers_of(function)) add("  " + r.name + " (caller)", r.attributed);
  MetricVector own{};
  for (const auto& f : a.functions_inclusive(0)) {
    if (f.name == function) own = f.mv;
  }
  add("*" + function + " (inclusive)", own);
  for (const auto& r : a.callees_of(function)) add("  " + r.name + " (callee)", r.attributed);
  return "Callers-callees of " + function + ":\n" + table.render();
}

std::string render_annotated_source(const Analysis& a, const std::string& function) {
  const auto cols = present_columns(a);
  std::ostringstream os;
  os << "Annotated source, function " << function << ":\n";
  os << "   ";
  for (size_t m : cols) os << "[" << metric_name(m) << (metric_in_cycles(m) ? " sec." : "") << "] ";
  os << "\n";
  const auto rows = a.annotated_source(function);
  for (const auto& r : rows) {
    // "##" marks lines above 3% of any displayed metric (hot lines).
    bool hot = false;
    for (size_t m : cols) {
      if (a.total()[m] > 0 && r.mv[m] / a.total()[m] > 0.03) hot = true;
    }
    os << (hot ? "## " : "   ");
    for (size_t m : cols) {
      const std::string cell = metric_in_cycles(m)
                                   ? fmt_fixed(a.seconds(r.mv[m]), 3)
                                   : fmt_count(static_cast<u64>(r.mv[m]));
      os << cell;
      for (size_t i = cell.size(); i < 12; ++i) os << ' ';
    }
    os << r.line << ". " << r.text << "\n";
  }
  return os.str();
}

std::string render_annotated_disassembly(const Analysis& a, const std::string& function) {
  const auto cols = present_columns(a);
  std::ostringstream os;
  os << "Annotated disassembly, function " << function << ":\n";
  os << "   ";
  for (size_t m : cols) os << "[" << metric_name(m) << (metric_in_cycles(m) ? " sec." : "") << "] ";
  os << "\n";
  for (const auto& r : a.annotated_disassembly(function)) {
    bool hot = false;
    for (size_t m : cols) {
      if (a.total()[m] > 0 && r.mv[m] / a.total()[m] > 0.03) hot = true;
    }
    os << (hot ? "## " : "   ");
    for (size_t m : cols) {
      const std::string cell = metric_in_cycles(m)
                                   ? fmt_fixed(a.seconds(r.mv[m]), 3)
                                   : fmt_count(static_cast<u64>(r.mv[m]));
      os << cell;
      for (size_t i = cell.size(); i < 12; ++i) os << ' ';
    }
    char pcbuf[32];
    std::snprintf(pcbuf, sizeof pcbuf, "%llx", static_cast<unsigned long long>(r.pc));
    os << "[" << r.line << "] " << pcbuf;
    if (r.artificial) {
      os << "*: " << r.text << "   <--- <<<\n";
      continue;
    }
    os << ":  " << r.text;
    if (!r.data_annot.empty()) os << "   " << r.data_annot;
    os << "\n";
  }
  return os.str();
}

std::string render_hot_pcs(const Analysis& a, size_t sort_metric, size_t top_n) {
  const auto cols = present_columns(a);
  std::vector<std::string> headers;
  std::vector<Align> aligns;
  for (size_t m : cols) {
    headers.push_back("Excl. " + col_header(a, m, true, true));
    aligns.push_back(Align::Right);
  }
  headers.push_back("Name");
  aligns.push_back(Align::Left);
  TextTable table(headers, aligns);

  auto add = [&](const std::string& name, const MetricVector& mv) {
    std::vector<std::string> cells;
    for (size_t m : cols) cells.push_back(metric_cell(a, mv, a.total(), m, true, true));
    cells.push_back(name);
    table.add_row(std::move(cells));
  };
  add("<Total>", a.total());
  size_t n = 0;
  for (const auto& r : a.pcs(sort_metric)) {
    if (n++ >= top_n) break;
    std::string name = a.pc_name(r.pc);
    if (r.artificial) name += " *<branch target>";
    const std::string annot = a.symtab().memref_string(r.pc);
    if (!annot.empty() && !r.artificial) name += "  " + annot;
    add(name, r.mv);
  }
  return table.render();
}

std::string render_data_objects(const Analysis& a, size_t sort_metric) {
  const auto all_cols = present_columns(a);
  std::vector<size_t> cols;
  for (size_t m : all_cols) {
    if (m != kUserCpuMetric) cols.push_back(m);  // no data metrics for clock profiles
  }
  std::vector<std::string> headers;
  std::vector<Align> aligns;
  for (size_t m : cols) {
    headers.push_back("Data. " + col_header(a, m, true, true));
    aligns.push_back(Align::Right);
  }
  headers.push_back("Name");
  aligns.push_back(Align::Left);
  TextTable table(headers, aligns);

  auto add = [&](const std::string& name, const MetricVector& mv) {
    std::vector<std::string> cells;
    for (size_t m : cols) cells.push_back(metric_cell(a, mv, a.data_total(), m, true, true));
    cells.push_back(name);
    table.add_row(std::move(cells));
  };
  add("<Total>", a.data_total());

  const auto rows = a.data_objects(sort_metric);
  // <Unknown> aggregate row: sum of the five indeterminate categories.
  MetricVector unknown{};
  for (const auto& r : rows) {
    if (data_cat_is_unknown(r.cat)) add_all(unknown, r.mv);
  }
  bool unknown_added = !any_metric(unknown);
  for (const auto& r : rows) {
    if (!unknown_added && unknown[sort_metric] >= r.mv[sort_metric]) {
      add("<Unknown>", unknown);
      unknown_added = true;
    }
    if (data_cat_is_unknown(r.cat)) {
      add("  " + r.name, r.mv);
    } else {
      add(r.name, r.mv);
    }
  }
  if (!unknown_added) add("<Unknown>", unknown);
  return table.render();
}

std::string render_member_expansion(const Analysis& a, const std::string& struct_name) {
  const auto all_cols = present_columns(a);
  std::vector<size_t> cols;
  for (size_t m : all_cols) {
    if (m != kUserCpuMetric) cols.push_back(m);
  }
  std::vector<std::string> headers;
  std::vector<Align> aligns;
  for (size_t m : cols) {
    headers.push_back("Data. " + col_header(a, m, true, true));
    aligns.push_back(Align::Right);
  }
  headers.push_back("Name (+offset field-name)");
  aligns.push_back(Align::Left);
  TextTable table(headers, aligns);

  // Struct total row.
  MetricVector total{};
  const auto member_rows = a.members(struct_name);
  for (const auto& r : member_rows) add_all(total, r.mv);
  {
    std::vector<std::string> cells;
    for (size_t m : cols) cells.push_back(metric_cell(a, total, a.data_total(), m, true, true));
    cells.push_back("{structure:" + struct_name + " -}");
    table.add_row(std::move(cells));
  }
  for (const auto& r : member_rows) {
    std::vector<std::string> cells;
    for (size_t m : cols) cells.push_back(metric_cell(a, r.mv, a.data_total(), m, true, true));
    cells.push_back("  " + r.name);
    table.add_row(std::move(cells));
  }
  return table.render();
}

namespace {

/// {"ucpu":123,"ecstall":456} over the present columns. Every metric weight
/// is an integral count (reduction.hpp: integer accumulation), so rendering
/// through fmt_count is exact and stable across platforms.
std::string json_metrics(const MetricVector& mv, const std::vector<size_t>& cols) {
  std::string out = "{";
  bool first = true;
  for (size_t m : cols) {
    if (!first) out += ",";
    first = false;
    out += "\"" + metric_short_name(m) + "\":" + std::to_string(static_cast<u64>(mv[m]));
  }
  out += "}";
  return out;
}

}  // namespace

std::string render_json_report(const Analysis& a, u64 dropped_events) {
  const std::vector<size_t> cols = present_columns(a);
  const size_t sort_metric = cols.empty() ? kUserCpuMetric : cols.front();
  std::ostringstream os;
  os << "{\"schema\":\"dsprof-report-v1\"";
  os << ",\"sort_metric\":\"" << metric_short_name(sort_metric) << "\"";
  os << ",\"events\":" << a.result().events_reduced;
  os << ",\"dropped_events\":" << dropped_events;
  os << ",\"totals\":" << json_metrics(a.total(), cols);
  os << ",\"data_totals\":" << json_metrics(a.data_total(), cols);
  if (a.multiplexed()) {
    // Per-metric renormalization factors and standard errors. The field is
    // emitted only for multiplexed runs, keeping non-multiplexed -J output
    // byte-identical to the pre-multiplexing schema.
    os << ",\"mpx\":{";
    bool mfirst = true;
    for (size_t m : cols) {
      if (!mfirst) os << ",";
      mfirst = false;
      char scale_buf[32], se_buf[32];
      std::snprintf(scale_buf, sizeof scale_buf, "%.6g", a.metric_scale(m));
      std::snprintf(se_buf, sizeof se_buf, "%.6g", a.metric_stderr(m));
      os << "\"" << metric_short_name(m) << "\":{\"scale\":" << scale_buf
         << ",\"se\":" << se_buf << "}";
    }
    os << "}";
  }

  os << ",\"functions\":[";
  bool first = true;
  for (const auto& f : a.functions(sort_metric)) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(f.name) << "\",\"metrics\":" << json_metrics(f.mv, cols)
       << "}";
  }
  if (dropped_events != 0) {
    if (!first) os << ",";
    os << "{\"name\":\"(Dropped)\",\"events\":" << dropped_events << "}";
  }
  os << "]";

  os << ",\"pcs\":[";
  first = true;
  for (const auto& p : a.pcs(sort_metric)) {
    if (!first) os << ",";
    first = false;
    char pc_hex[32];
    std::snprintf(pc_hex, sizeof(pc_hex), "0x%llx", static_cast<unsigned long long>(p.pc));
    os << "{\"pc\":\"" << pc_hex << "\",\"artificial\":" << (p.artificial ? "true" : "false")
       << ",\"metrics\":" << json_metrics(p.mv, cols) << "}";
  }
  os << "]";

  // Source lines straight from the reduction aggregates, ascending by line
  // number (the per-function annotated views slice this same map).
  os << ",\"lines\":[";
  {
    std::vector<std::pair<u64, MetricVector>> lines;
    lines.reserve(a.result().line.size());
    for (const auto& e : a.result().line.entries())
      lines.emplace_back(e.key, a.scaled(e.value));
    std::sort(lines.begin(), lines.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    first = true;
    for (const auto& [line, mv] : lines) {
      if (!first) os << ",";
      first = false;
      os << "{\"line\":" << line << ",\"metrics\":" << json_metrics(mv, cols) << "}";
    }
  }
  os << "]";

  os << ",\"data_objects\":[";
  first = true;
  for (const auto& d : a.data_objects(sort_metric)) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(d.name) << "\",\"metrics\":" << json_metrics(d.mv, cols)
       << "}";
  }
  os << "]}";
  return os.str();
}

std::string render_effectiveness(const Analysis& a) {
  TextTable table({"Metric", "Data total", "Unresolved", "Effectiveness %"},
                  {Align::Left, Align::Right, Align::Right, Align::Right});
  for (const auto& r : a.effectiveness()) {
    table.add_row({metric_name(r.metric), fmt_count(static_cast<u64>(r.total)),
                   fmt_count(static_cast<u64>(r.unresolved)),
                   fmt_percent(r.effectiveness())});
  }
  std::ostringstream os;
  os << "Apropos backtracking effectiveness (100% - unresolvable - unascertainable):\n"
     << table.render();
  return os.str();
}

namespace {

std::string render_addr_rows(const Analysis& a, const std::vector<Analysis::AddrRow>& rows,
                             const std::string& what) {
  const auto all_cols = present_columns(a);
  std::vector<size_t> cols;
  for (size_t m : all_cols) {
    if (m != kUserCpuMetric) cols.push_back(m);
  }
  std::vector<std::string> headers;
  std::vector<Align> aligns;
  for (size_t m : cols) {
    headers.push_back("Data. " + col_header(a, m, true, true));
    aligns.push_back(Align::Right);
  }
  headers.push_back(what);
  aligns.push_back(Align::Left);
  TextTable table(headers, aligns);
  for (const auto& r : rows) {
    std::vector<std::string> cells;
    for (size_t m : cols) cells.push_back(metric_cell(a, r.mv, a.data_total(), m, true, true));
    cells.push_back(r.name);
    table.add_row(std::move(cells));
  }
  return table.render();
}

}  // namespace

std::string render_segments(const Analysis& a) {
  return "Metrics by memory segment (events with known effective address):\n" +
         render_addr_rows(a, a.segments(), "Segment");
}

std::string render_pages(const Analysis& a, size_t sort_metric, size_t top_n) {
  return "Hottest pages (" + std::to_string(a.page_size() / 1024) + " kB):\n" +
         render_addr_rows(a, a.pages(sort_metric, top_n), "Page");
}

std::string render_cache_lines(const Analysis& a, size_t sort_metric, size_t top_n) {
  return "Hottest E$ lines (" + std::to_string(a.ec_line_size()) + " B):\n" +
         render_addr_rows(a, a.cache_lines(sort_metric, top_n), "E$ line");
}

std::string render_instances(const Analysis& a, size_t sort_metric, size_t top_n) {
  const auto rows = a.instances(sort_metric, top_n);
  std::vector<Analysis::AddrRow> addr_rows;
  for (const auto& r : rows) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " @0x%llx (%llu bytes)",
                  static_cast<unsigned long long>(r.base),
                  static_cast<unsigned long long>(r.size));
    addr_rows.push_back({r.name + buf, r.base, r.mv});
  }
  return "Hottest allocated instances:\n" + render_addr_rows(a, addr_rows, "Instance");
}

}  // namespace dsprof::analyze
