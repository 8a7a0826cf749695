#include "experiment/experiment.hpp"

#include <algorithm>
#include <filesystem>

#include "support/mmap_file.hpp"

namespace dsprof::experiment {

namespace {

constexpr u32 kMagic = 0x4453504A;  // 'DSPJ'

void put_trailer(ByteWriter& w, const Experiment& ex) {
  w.put_u32(static_cast<u32>(ex.allocations.size()));
  for (const auto& a : ex.allocations) {
    w.put_u64(a.addr);
    w.put_u64(a.size);
    w.put_u64(a.site_pc);
  }
  w.put_u32(static_cast<u32>(ex.truth.size()));
  for (const auto& t : ex.truth) {
    w.put_u64(t.seq);
    w.put_u8(static_cast<u8>(t.pic));
    w.put_u8(static_cast<u8>(t.event));
    w.put_u64(t.trigger_pc);
    w.put_u8(t.ea_valid ? 1 : 0);
    w.put_u64(t.ea);
    w.put_u32(t.skid);
  }
}

void get_trailer(ByteReader& r, Experiment& ex) {
  const u32 na = r.get_u32();
  for (u32 i = 0; i < na; ++i) {
    machine::AllocRecord a;
    a.addr = r.get_u64();
    a.size = r.get_u64();
    a.site_pc = r.get_u64();
    ex.allocations.push_back(a);
  }
  const u32 nt = r.get_u32();
  for (u32 i = 0; i < nt; ++i) {
    machine::TruthRecord t;
    t.seq = r.get_u64();
    t.pic = r.get_u8();
    t.event = static_cast<machine::HwEvent>(r.get_u8());
    t.trigger_pc = r.get_u64();
    t.ea_valid = r.get_u8() != 0;
    t.ea = r.get_u64();
    t.skid = r.get_u32();
    ex.truth.push_back(t);
  }
}

/// The bounds a saved run must meet beyond get_run_header's: a run that did
/// not multiplex (empty slice table) records at most one counter per PIC
/// register, all in set 0; a multiplexed run's set ids index its slice table.
void check_file_header(const Experiment& ex) {
  if (ex.slices.empty()) {
    DSP_CHECK(ex.counters.size() <= machine::kNumPics,
              "implausible counter count " + std::to_string(ex.counters.size()) +
                  " in header without a slice table");
  }
  const size_t nsets = std::max<size_t>(ex.slices.size(), 1);
  for (const auto& c : ex.counters) {
    DSP_CHECK(c.set < nsets, "counter set id " + std::to_string(c.set) + " outside the " +
                                 std::to_string(ex.slices.size()) + "-entry slice table");
  }
}

}  // namespace

void put_run_header(ByteWriter& w, const Experiment& ex) {
  w.put_u32(static_cast<u32>(ex.counters.size()));
  for (const auto& c : ex.counters) {
    w.put_u8(static_cast<u8>(c.event));
    w.put_u64(c.interval);
    w.put_u8(c.backtrack ? 1 : 0);
    w.put_u8(static_cast<u8>(c.pic));
    w.put_u8(static_cast<u8>(c.set));
  }
  w.put_u64(ex.clock_interval);
  w.put_u64(ex.clock_hz);
  w.put_u64(ex.page_size);
  w.put_u64(ex.ec_line_size);
  w.put_u64(ex.total_cycles);
  w.put_u64(ex.total_instructions);
  w.put_u32(static_cast<u32>(ex.slices.size()));
  for (const auto& s : ex.slices) {
    w.put_u64(s.live_cycles);
    w.put_u64(s.switches);
  }
}

void get_run_header(ByteReader& r, Experiment& ex) {
  // A run records at most one counter per event type; a larger count means
  // the header is corrupt and must not drive allocation.
  const u32 nc = r.get_u32();
  DSP_CHECK(nc <= machine::kNumHwEvents,
            "implausible counter count " + std::to_string(nc) + " in header");
  ex.counters.assign(nc, CounterSpec{});
  for (auto& c : ex.counters) {
    const u8 event = r.get_u8();
    DSP_CHECK(event < machine::kNumHwEvents,
              "counter event " + std::to_string(event) + " out of range in header");
    c.event = static_cast<machine::HwEvent>(event);
    c.interval = r.get_u64();
    c.backtrack = r.get_u8() != 0;
    c.pic = r.get_u8();
    c.set = r.get_u8();
  }
  ex.clock_interval = r.get_u64();
  ex.clock_hz = r.get_u64();
  ex.page_size = r.get_u64();
  ex.ec_line_size = r.get_u64();
  DSP_CHECK(ex.page_size != 0 && ex.ec_line_size != 0,
            "zero page or E$ line size in header");
  ex.total_cycles = r.get_u64();
  ex.total_instructions = r.get_u64();
  // Sets partition the counters, so there are never more sets than counters.
  const u32 ns = r.get_u32();
  DSP_CHECK(ns <= nc, "implausible slice-table set count " + std::to_string(ns) +
                          " in header (only " + std::to_string(nc) + " counters)");
  ex.slices.assign(ns, SliceInfo{});
  for (auto& s : ex.slices) {
    s.live_cycles = r.get_u64();
    s.switches = r.get_u64();
  }
}

void Experiment::save(const std::string& dir) const {
  std::filesystem::create_directories(dir);

  write_file(dir + "/log.txt", std::vector<u8>(log.begin(), log.end()));

  ByteWriter lo;
  image.serialize(lo);
  write_file(dir + "/loadobjects.bin", lo.bytes());

  ByteWriter w;
  w.put_u32(kMagic);
  put_run_header(w, *this);
  events.serialize_aligned(w);
  put_trailer(w, *this);
  write_file(dir + "/events.bin", w.bytes());
}

Experiment Experiment::load(const std::string& dir) {
  Experiment ex;

  const auto logbytes = read_file(dir + "/log.txt");
  ex.log.assign(logbytes.begin(), logbytes.end());

  // Every structural problem in either binary file — truncation, corrupt
  // counts, out-of-range handles — surfaces as an Error naming the file and
  // directory, never as undefined behaviour or an uncontextualized check.
  try {
    const auto lobytes = read_file(dir + "/loadobjects.bin");
    ByteReader lr(lobytes);
    ex.image = sym::Image::deserialize(lr);
  } catch (const Error& e) {
    fail("corrupt experiment loadobjects.bin in '" + dir + "': " + e.what());
  }

  try {
    const auto mf = MappedFile::open(dir + "/events.bin");
    ByteReader r(mf->data(), mf->size());
    DSP_CHECK(r.get_u32() == kMagic, "bad events.bin magic (expected DSPJ)");
    get_run_header(r, ex);
    check_file_header(ex);
    ex.events = EventStore::deserialize_aligned(r, mf);
    get_trailer(r, ex);
    DSP_CHECK(r.at_end(), std::to_string(r.remaining()) + " trailing byte(s) after trailer");
  } catch (const Error& e) {
    fail("corrupt experiment events.bin in '" + dir + "': " + e.what());
  }
  return ex;
}

}  // namespace dsprof::experiment
