// Columnar (struct-of-arrays) storage for profile events.
//
// The seed kept a vector of row records where every event owned a
// heap-allocated callstack vector — at 10^5-10^6 events per run that is an
// allocation per event on the collection hot path and a pointer chase per
// event in every reduction. The EventStore instead keeps one column per
// field and interns callstacks into a single flat arena: identical stacks
// (the common case — a hot loop delivers thousands of events from the same
// call chain) are stored once and addressed by {offset,len} handles.
//
// Storage comes in two flavors behind one interface (Column<T> views):
//
//   owning   the default: std::vector columns + a live interning table.
//            Append-only; after warm-up, appending an event performs no
//            heap allocation beyond amortized column growth.
//   mapped   zero-copy views into read-only bytes in the aligned columnar
//            layout: an events.bin mapping (experiment.hpp) or a wire
//            EventBatch payload (serve/wire.hpp). The store holds those
//            bytes alive via shared_ptr. Mapped stores are read-only:
//            append() is an error, reduction and serialization work
//            unchanged, and append_range copies one into an owning store.
#pragma once

#include <memory>
#include <vector>

#include "machine/counters.hpp"
#include "support/bytestream.hpp"
#include "support/flat_hash.hpp"

namespace dsprof::experiment {

/// Non-owning typed view of one column: either a window over an owning
/// std::vector or a slice of read-only mapped bytes. Valid as long as the
/// owning EventStore is alive (and, for owning stores, un-appended).
template <typename T>
class Column {
 public:
  Column() = default;
  Column(const T* p, size_t n) : ptr_(p), n_(n) {}
  explicit Column(const std::vector<T>& v) : ptr_(v.data()), n_(v.size()) {}

  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  const T& operator[](size_t i) const { return ptr_[i]; }
  const T* data() const { return ptr_; }
  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + n_; }

 private:
  const T* ptr_ = nullptr;
  size_t n_ = 0;
};

/// Non-owning view of an interned callstack (call-site PCs, outermost
/// first). Valid as long as the owning EventStore is alive and un-moved.
struct CallstackRef {
  const u64* ptr = nullptr;
  u32 len = 0;

  const u64* begin() const { return ptr; }
  const u64* end() const { return ptr + len; }
  size_t size() const { return len; }
  bool empty() const { return len == 0; }
  u64 operator[](size_t i) const { return ptr[i]; }

  std::vector<u64> to_vector() const { return std::vector<u64>(ptr, ptr + len); }

  friend bool operator==(const CallstackRef& a, const CallstackRef& b) {
    if (a.len != b.len) return false;
    for (u32 i = 0; i < a.len; ++i) {
      if (a.ptr[i] != b.ptr[i]) return false;
    }
    return true;
  }
  friend bool operator==(const CallstackRef& a, const std::vector<u64>& b) {
    return a == CallstackRef{b.data(), static_cast<u32>(b.size())};
  }
  friend bool operator==(const std::vector<u64>& a, const CallstackRef& b) { return b == a; }
};

/// One recorded profile event, materialized from the columns. Contains only
/// information available at collection time on real hardware: the skidded
/// delivered PC, the backtracked candidate trigger PC (if any), and the
/// recomputed effective address (if the address registers survived the
/// skid).
struct EventView {
  u8 pic = 0;  // 0/1, or machine::kClockPic for clock-profile samples
  machine::HwEvent event = machine::HwEvent::Cycle_cnt;
  u64 weight = 0;  // overflow interval: estimated events per sample
  u64 delivered_pc = 0;
  bool has_candidate = false;
  u64 candidate_pc = 0;
  bool has_ea = false;
  u64 ea = 0;
  CallstackRef callstack;  // call-site PCs at delivery, outermost first
  u64 seq = 0;             // joins with the machine's ground-truth log
  u8 set = 0;              // multiplexed counter set the event belongs to
};

class EventStore {
 public:
  static constexpr u8 kHasCandidate = 1;
  static constexpr u8 kHasEa = 2;

  size_t size() const { return mapped_ ? mapped_rows_ : pic_.size(); }
  bool empty() const { return size() == 0; }

  /// True for zero-copy stores over mapped bytes (these refuse append()).
  bool is_mapped() const { return mapped_; }

  /// Append one event; the callstack words are interned into the arena.
  /// No per-event allocation once columns/arena capacity has warmed up
  /// (growth is amortized). Error on a mapped store. `set` is the
  /// multiplexed counter set the event was recorded under (0 when the run
  /// does not multiplex).
  void append(u8 pic, machine::HwEvent event, u64 weight, u64 delivered_pc, bool has_candidate,
              u64 candidate_pc, bool has_ea, u64 ea, const u64* stack, size_t stack_len, u64 seq,
              u8 set = 0);

  EventView operator[](size_t i) const {
    EventView v;
    v.pic = pic_col()[i];
    v.event = static_cast<machine::HwEvent>(event_col()[i]);
    v.weight = weight_col()[i];
    v.delivered_pc = delivered_pc_col()[i];
    v.has_candidate = (flags_col()[i] & kHasCandidate) != 0;
    v.candidate_pc = candidate_pc_col()[i];
    v.has_ea = (flags_col()[i] & kHasEa) != 0;
    v.ea = ea_col()[i];
    v.callstack = callstack(i);
    v.seq = seq_col()[i];
    v.set = set_col()[i];
    return v;
  }

  CallstackRef callstack(size_t i) const {
    return CallstackRef{arena().data() + cs_offset_col()[i], cs_len_col()[i]};
  }

  // --- raw columns (reduction engine / serializer) --------------------------
  // Views into whichever storage backs the store; cheap to construct, so hot
  // loops should still hoist .data() out of the loop.
  Column<u8> pic_col() const { return mapped_ ? m_pic_ : Column<u8>(pic_); }
  Column<u8> event_col() const { return mapped_ ? m_event_ : Column<u8>(event_); }
  Column<u64> weight_col() const { return mapped_ ? m_weight_ : Column<u64>(weight_); }
  Column<u64> delivered_pc_col() const {
    return mapped_ ? m_delivered_pc_ : Column<u64>(delivered_pc_);
  }
  Column<u8> flags_col() const { return mapped_ ? m_flags_ : Column<u8>(flags_); }
  Column<u64> candidate_pc_col() const {
    return mapped_ ? m_candidate_pc_ : Column<u64>(candidate_pc_);
  }
  Column<u64> ea_col() const { return mapped_ ? m_ea_ : Column<u64>(ea_); }
  Column<u64> seq_col() const { return mapped_ ? m_seq_ : Column<u64>(seq_); }
  Column<u64> cs_offset_col() const { return mapped_ ? m_cs_offset_ : Column<u64>(cs_offset_); }
  Column<u32> cs_len_col() const { return mapped_ ? m_cs_len_ : Column<u32>(cs_len_); }
  Column<u64> arena() const { return mapped_ ? m_arena_ : Column<u64>(arena_); }
  Column<u8> set_col() const { return mapped_ ? m_set_ : Column<u8>(set_); }

  /// Number of distinct interned callstacks (arena dedup effectiveness).
  /// For mapped stores (no interning table) this is computed on first call
  /// by scanning the handle columns.
  size_t unique_callstacks() const;
  size_t arena_words() const { return arena().size(); }

  void reserve(size_t n);
  void clear();

  /// Bulk-append events [begin, end) of `other` (callstacks re-interned
  /// into this store's arena). Reserves up front, so the batch paths —
  /// collect's batch export, bench replay — pay amortized column growth
  /// once instead of per event. `other` may be mapped; `this` must not be.
  void append_range(const EventStore& other, size_t begin, size_t end);
  void append_store(const EventStore& other) { append_range(other, 0, other.size()); }

  // --- iteration ------------------------------------------------------------
  class const_iterator {
   public:
    using value_type = EventView;
    using difference_type = std::ptrdiff_t;

    const_iterator(const EventStore* s, size_t i) : s_(s), i_(i) {}
    EventView operator*() const { return (*s_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator t = *this;
      ++i_;
      return t;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }
    difference_type operator-(const const_iterator& o) const {
      return static_cast<difference_type>(i_) - static_cast<difference_type>(o.i_);
    }

   private:
    const EventStore* s_;
    size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  // --- the aligned columnar codec -------------------------------------------
  // Every column is a u64 element count followed by the raw elements, padded
  // to an 8-byte offset from the start of the writer: pic, event, weight,
  // delivered_pc, flags, candidate_pc, ea, seq, cs_offset, cs_len, arena,
  // set. events.bin and the wire EventBatch both carry these bytes.

  /// Serialize the whole store. `w` must hold the whole file or payload from
  /// offset 0 for the alignment to be meaningful.
  void serialize_aligned(ByteWriter& w) const;

  /// Serialize events [begin, end) as a self-contained store: only the arena
  /// ranges the slice references are emitted (each once), with handles
  /// remapped — one hash probe per event, no per-event word hashing as
  /// append_range + serialize_aligned would pay. The wire batch encoder.
  void serialize_range_aligned(ByteWriter& w, size_t begin, size_t end) const;

  /// Read the aligned layout as a mapped store over the bytes behind `r`,
  /// which `keepalive` must own (a file mapping, a frame payload). Checks
  /// that every column has the same length, every callstack handle lies in
  /// the arena and every event id is a HwEvent before adopting the views.
  static EventStore deserialize_aligned(ByteReader& r, std::shared_ptr<const void> keepalive);

 private:
  /// Intern `stack` into the arena, returning its offset. Identical stacks
  /// share one arena range.
  u64 intern(const u64* stack, u32 len);

  /// The serialize_range_aligned slice encoding: remap each referenced
  /// arena range of [begin, end) into a compact slice arena (one hash probe
  /// per event, one memcpy per unique stack).
  void remap_slice(size_t begin, size_t end, std::vector<u64>& slice_off,
                   std::vector<u64>& slice_arena) const;

  /// Write events [begin, begin + n) in the aligned layout with the given
  /// callstack handles and arena (the store's own, or a remapped slice's).
  void put_columns(ByteWriter& w, size_t begin, size_t n, Column<u64> cs_offset,
                   Column<u64> arena) const;

  // Per-event columns, all size() long (owning storage).
  std::vector<u8> pic_;
  std::vector<u8> event_;
  std::vector<u64> weight_;
  std::vector<u64> delivered_pc_;
  std::vector<u8> flags_;
  std::vector<u64> candidate_pc_;
  std::vector<u64> ea_;
  std::vector<u64> seq_;
  std::vector<u64> cs_offset_;  // into arena_
  std::vector<u32> cs_len_;
  std::vector<u8> set_;         // multiplexed counter set per event

  std::vector<u64> arena_;  // concatenated unique callstacks

  // Mapped storage: views into `mapping_` (all mapped_rows_ long).
  bool mapped_ = false;
  size_t mapped_rows_ = 0;
  Column<u8> m_pic_, m_event_, m_flags_, m_set_;
  Column<u64> m_weight_, m_delivered_pc_, m_candidate_pc_, m_ea_, m_seq_, m_cs_offset_;
  Column<u32> m_cs_len_;
  Column<u64> m_arena_;
  std::shared_ptr<const void> mapping_;  // file mapping or frame payload

  // Interning table: hash of stack words -> arena {offset,len} candidates.
  struct Interned {
    u64 offset;
    u32 len;
  };
  FlatHashU64Map<Interned> intern_;
  bool has_empty_ = false;  // an empty callstack has been appended

  // unique_callstacks() cache for mapped stores (computed on demand).
  mutable size_t mapped_unique_ = 0;
  mutable bool mapped_unique_valid_ = false;
};

}  // namespace dsprof::experiment
