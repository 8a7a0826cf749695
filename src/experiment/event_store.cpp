#include "experiment/event_store.hpp"

#include <algorithm>
#include <cstring>

namespace dsprof::experiment {

namespace {

u64 hash_words(const u64* p, u32 n) {
  // FNV-style fold of splitmix-mixed words; the exact function is internal
  // (never serialized), it only needs to be fast and well distributed.
  u64 h = 0x243f6a8885a308d3ULL ^ n;
  for (u32 i = 0; i < n; ++i) h = mix_u64(h ^ p[i]);
  return h;
}

template <typename T>
void put_pod_column_aligned(ByteWriter& w, Column<T> col) {
  w.put_u64(col.size());
  w.align_to(8);
  if (!col.empty()) {
    const auto* p = reinterpret_cast<const u8*>(col.data());
    w.put_raw(p, col.size() * sizeof(T));
  }
}

/// Parse one aligned column as a view into the reader's buffer. No copy;
/// bounds- and overflow-checked like the blob path.
template <typename T>
Column<T> view_pod_column_aligned(ByteReader& r) {
  const u64 n = r.get_u64();
  r.align_to(8);
  DSP_CHECK(n <= r.remaining() / sizeof(T), "event column size mismatch");
  const u8* p = r.cursor();
  r.skip(n * sizeof(T));
  return Column<T>(reinterpret_cast<const T*>(p), static_cast<size_t>(n));
}

}  // namespace

u64 EventStore::intern(const u64* stack, u32 len) {
  if (len == 0) {
    has_empty_ = true;
    return 0;
  }
  u64 key = hash_words(stack, len);
  // Collision chain: if a hash bucket holds a *different* stack, derive the
  // next probe key deterministically and retry. With 64-bit mixed hashes the
  // chain length is ~1 in practice.
  for (;;) {
    Interned& slot = intern_[key];
    if (slot.len == 0) {
      // Fresh: copy the stack into the arena.
      slot.offset = arena_.size();
      slot.len = len;
      arena_.insert(arena_.end(), stack, stack + len);
      return slot.offset;
    }
    if (slot.len == len &&
        std::memcmp(arena_.data() + slot.offset, stack, len * sizeof(u64)) == 0) {
      return slot.offset;  // already interned
    }
    key = mix_u64(key + 0x9e3779b97f4a7c15ULL);
  }
}

void EventStore::append(u8 pic, machine::HwEvent event, u64 weight, u64 delivered_pc,
                        bool has_candidate, u64 candidate_pc, bool has_ea, u64 ea,
                        const u64* stack, size_t stack_len, u64 seq, u8 set) {
  DSP_CHECK(!mapped_, "append to a mapped EventStore");
  const u64 off = intern(stack, static_cast<u32>(stack_len));
  pic_.push_back(pic);
  event_.push_back(static_cast<u8>(event));
  weight_.push_back(weight);
  delivered_pc_.push_back(delivered_pc);
  flags_.push_back(static_cast<u8>((has_candidate ? kHasCandidate : 0) | (has_ea ? kHasEa : 0)));
  candidate_pc_.push_back(candidate_pc);
  ea_.push_back(ea);
  seq_.push_back(seq);
  cs_offset_.push_back(off);
  cs_len_.push_back(static_cast<u32>(stack_len));
  set_.push_back(set);
}

void EventStore::reserve(size_t n) {
  pic_.reserve(n);
  event_.reserve(n);
  weight_.reserve(n);
  delivered_pc_.reserve(n);
  flags_.reserve(n);
  candidate_pc_.reserve(n);
  ea_.reserve(n);
  seq_.reserve(n);
  cs_offset_.reserve(n);
  cs_len_.reserve(n);
  set_.reserve(n);
}

void EventStore::clear() {
  pic_.clear();
  event_.clear();
  weight_.clear();
  delivered_pc_.clear();
  flags_.clear();
  candidate_pc_.clear();
  ea_.clear();
  seq_.clear();
  cs_offset_.clear();
  cs_len_.clear();
  set_.clear();
  arena_.clear();
  intern_.clear();
  has_empty_ = false;
  // Dropping mapped state turns the store back into an empty owning one
  // (and releases the mapped bytes).
  mapped_ = false;
  mapped_rows_ = 0;
  mapping_.reset();
  mapped_unique_valid_ = false;
}

size_t EventStore::unique_callstacks() const {
  if (!mapped_) return intern_.size() + (has_empty_ ? 1 : 0);
  if (!mapped_unique_valid_) {
    // No interning table to consult: count distinct {offset,len} handles.
    // Only stats displays ask for this, so O(n log n) on demand is fine.
    const auto off = cs_offset_col();
    const auto len = cs_len_col();
    std::vector<std::pair<u64, u32>> handles;
    handles.reserve(off.size());
    for (size_t i = 0; i < off.size(); ++i) handles.emplace_back(off[i], len[i]);
    std::sort(handles.begin(), handles.end());
    mapped_unique_ = static_cast<size_t>(
        std::unique(handles.begin(), handles.end()) - handles.begin());
    mapped_unique_valid_ = true;
  }
  return mapped_unique_;
}

void EventStore::append_range(const EventStore& other, size_t begin, size_t end) {
  DSP_CHECK(begin <= end && end <= other.size(), "append_range outside source store");
  DSP_CHECK(&other != this, "append_range from self");
  reserve(size() + (end - begin));
  // Worst case every source callstack is new to this arena; reserving the
  // source arena's word count keeps re-interning allocation-free too.
  const auto o_pic = other.pic_col();
  const auto o_event = other.event_col();
  const auto o_weight = other.weight_col();
  const auto o_dpc = other.delivered_pc_col();
  const auto o_flags = other.flags_col();
  const auto o_cpc = other.candidate_pc_col();
  const auto o_ea = other.ea_col();
  const auto o_seq = other.seq_col();
  const auto o_off = other.cs_offset_col();
  const auto o_len = other.cs_len_col();
  const auto o_arena = other.arena();
  const auto o_set = other.set_col();
  arena_.reserve(arena_.size() + o_arena.size());
  for (size_t i = begin; i < end; ++i) {
    append(o_pic[i], static_cast<machine::HwEvent>(o_event[i]), o_weight[i], o_dpc[i],
           (o_flags[i] & kHasCandidate) != 0, o_cpc[i], (o_flags[i] & kHasEa) != 0, o_ea[i],
           o_arena.data() + o_off[i], o_len[i], o_seq[i], o_set[i]);
  }
}

void EventStore::remap_slice(size_t begin, size_t end, std::vector<u64>& slice_off,
                             std::vector<u64>& slice_arena) const {
  const size_t n = end - begin;
  const auto src_off = cs_offset_col();
  const auto src_len = cs_len_col();
  const auto src_arena = arena();

  // Remap each referenced arena range into a compact slice arena. Handles
  // repeat heavily (that is the point of interning), so this is one hash
  // probe per event and one memcpy per *unique* stack in the slice. Keyed
  // by source offset; a len mismatch (possible only in hand-built stores
  // where handles overlap) falls through to the collision chain.
  struct Remap {
    u64 dest = 0;
    u32 len = 0;  // 0 = empty slot
  };
  FlatHashU64Map<Remap> remap;
  slice_off.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const u32 len = src_len[begin + i];
    if (len == 0) {
      slice_off[i] = 0;
      continue;
    }
    const u64 off = src_off[begin + i];
    u64 key = mix_u64(off);
    for (;;) {
      Remap& slot = remap[key];
      if (slot.len == 0) {
        slot.dest = slice_arena.size();
        slot.len = len;
        slice_arena.insert(slice_arena.end(), src_arena.data() + off,
                           src_arena.data() + off + len);
        slice_off[i] = slot.dest;
        break;
      }
      if (slot.len == len &&
          std::memcmp(slice_arena.data() + slot.dest, src_arena.data() + off,
                      len * sizeof(u64)) == 0) {
        slice_off[i] = slot.dest;
        break;
      }
      key = mix_u64(key + 0x9e3779b97f4a7c15ULL);
    }
  }
}

void EventStore::put_columns(ByteWriter& w, size_t begin, size_t n, Column<u64> cs_offset,
                             Column<u64> arena) const {
  put_pod_column_aligned(w, Column<u8>(pic_col().data() + begin, n));
  put_pod_column_aligned(w, Column<u8>(event_col().data() + begin, n));
  put_pod_column_aligned(w, Column<u64>(weight_col().data() + begin, n));
  put_pod_column_aligned(w, Column<u64>(delivered_pc_col().data() + begin, n));
  put_pod_column_aligned(w, Column<u8>(flags_col().data() + begin, n));
  put_pod_column_aligned(w, Column<u64>(candidate_pc_col().data() + begin, n));
  put_pod_column_aligned(w, Column<u64>(ea_col().data() + begin, n));
  put_pod_column_aligned(w, Column<u64>(seq_col().data() + begin, n));
  put_pod_column_aligned(w, cs_offset);
  put_pod_column_aligned(w, Column<u32>(cs_len_col().data() + begin, n));
  put_pod_column_aligned(w, arena);
  put_pod_column_aligned(w, Column<u8>(set_col().data() + begin, n));
}

void EventStore::serialize_range_aligned(ByteWriter& w, size_t begin, size_t end) const {
  DSP_CHECK(begin <= end && end <= size(), "serialize_range_aligned outside store");
  std::vector<u64> slice_off, slice_arena;
  remap_slice(begin, end, slice_off, slice_arena);
  put_columns(w, begin, end - begin, Column<u64>(slice_off), Column<u64>(slice_arena));
}

void EventStore::serialize_aligned(ByteWriter& w) const {
  put_columns(w, 0, size(), cs_offset_col(), arena());
}

EventStore EventStore::deserialize_aligned(ByteReader& r, std::shared_ptr<const void> keepalive) {
  // Parse the column views (bounds-checked against the reader), validate
  // them, then adopt them zero-copy.
  const Column<u8> pic = view_pod_column_aligned<u8>(r);
  const Column<u8> event = view_pod_column_aligned<u8>(r);
  const Column<u64> weight = view_pod_column_aligned<u64>(r);
  const Column<u64> delivered_pc = view_pod_column_aligned<u64>(r);
  const Column<u8> flags = view_pod_column_aligned<u8>(r);
  const Column<u64> candidate_pc = view_pod_column_aligned<u64>(r);
  const Column<u64> ea = view_pod_column_aligned<u64>(r);
  const Column<u64> seq = view_pod_column_aligned<u64>(r);
  const Column<u64> cs_offset = view_pod_column_aligned<u64>(r);
  const Column<u32> cs_len = view_pod_column_aligned<u32>(r);
  const Column<u64> arena = view_pod_column_aligned<u64>(r);
  const Column<u8> set = view_pod_column_aligned<u8>(r);

  const size_t n = pic.size();
  DSP_CHECK(event.size() == n && weight.size() == n && delivered_pc.size() == n &&
                flags.size() == n && candidate_pc.size() == n && ea.size() == n &&
                seq.size() == n && cs_offset.size() == n && cs_len.size() == n &&
                set.size() == n,
            "event columns have inconsistent lengths");
  for (size_t i = 0; i < n; ++i) {
    // The analyzer indexes per-event arrays by the event id.
    DSP_CHECK(event[i] < machine::kNumHwEvents,
              "event id " + std::to_string(event[i]) + " out of range");
    // Overflow-safe form: offset + len can wrap past the arena size.
    DSP_CHECK(cs_offset[i] <= arena.size() && cs_len[i] <= arena.size() - cs_offset[i],
              "callstack handle outside arena");
  }

  EventStore s;
  s.mapped_ = true;
  s.mapped_rows_ = n;
  s.m_pic_ = pic;
  s.m_event_ = event;
  s.m_weight_ = weight;
  s.m_delivered_pc_ = delivered_pc;
  s.m_flags_ = flags;
  s.m_candidate_pc_ = candidate_pc;
  s.m_ea_ = ea;
  s.m_seq_ = seq;
  s.m_cs_offset_ = cs_offset;
  s.m_cs_len_ = cs_len;
  s.m_arena_ = arena;
  s.m_set_ = set;
  s.mapping_ = std::move(keepalive);
  return s;
}

}  // namespace dsprof::experiment
