#include "support/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace dsprof {

namespace {

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

}  // namespace

TextTable::TextTable(std::vector<std::string> headers, std::vector<Align> aligns)
    : aligns_(std::move(aligns)), ncols_(headers.size()) {
  if (aligns_.empty()) aligns_.assign(ncols_, Align::Right);
  DSP_CHECK(aligns_.size() == ncols_, "aligns/headers size mismatch");
  // Split multi-line headers into parallel header rows, bottom-aligned.
  std::vector<std::vector<std::string>> cols;
  size_t maxlines = 1;
  for (auto& h : headers) {
    cols.push_back(split_lines(h));
    maxlines = std::max(maxlines, cols.back().size());
  }
  header_lines_.assign(maxlines, std::vector<std::string>(ncols_));
  for (size_t c = 0; c < ncols_; ++c) {
    const size_t pad = maxlines - cols[c].size();
    for (size_t l = 0; l < cols[c].size(); ++l) header_lines_[pad + l][c] = cols[c][l];
  }
}

void TextTable::add_row(std::vector<std::string> cells) {
  DSP_CHECK(cells.size() == ncols_, "row has wrong number of cells");
  rows_.push_back(std::move(cells));
}

std::string TextTable::render(int indent) const {
  std::vector<size_t> width(ncols_, 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < ncols_; ++c) width[c] = std::max(width[c], row[c].size());
  };
  for (auto& h : header_lines_) widen(h);
  for (auto& r : rows_) widen(r);

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    os << std::string(indent, ' ');
    for (size_t c = 0; c < ncols_; ++c) {
      const std::string& cell = row[c];
      const size_t pad = width[c] - cell.size();
      // The last column is never right-padded (keeps names unclipped).
      if (aligns_[c] == Align::Right) {
        os << std::string(pad, ' ') << cell;
      } else {
        os << cell;
        if (c + 1 < ncols_) os << std::string(pad, ' ');
      }
      if (c + 1 < ncols_) os << "  ";
    }
    os << '\n';
  };
  for (auto& h : header_lines_) emit(h);
  {
    size_t total = indent;
    for (size_t c = 0; c < ncols_; ++c) total += width[c] + (c + 1 < ncols_ ? 2 : 0);
    os << std::string(indent, ' ') << std::string(total - indent, '=') << '\n';
  }
  for (auto& r : rows_) emit(r);
  return os.str();
}

std::string fmt_fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string fmt_percent(double fraction) { return fmt_fixed(fraction * 100.0, 1); }

std::string fmt_count(u64 v) {
  std::string digits = std::to_string(v);
  std::string out;
  const size_t n = digits.size();
  for (size_t i = 0; i < n; ++i) {
    if (i != 0 && (n - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace dsprof
