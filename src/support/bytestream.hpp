// Little binary serialization layer for experiment files and symbol tables.
// Varint-free, explicitly sized little-endian fields; every reader checks
// bounds so a truncated or corrupt experiment produces an Error, never UB.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace dsprof {

class ByteWriter {
 public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v) { put_bytes(&v, 2); }
  void put_u32(u32 v) { put_bytes(&v, 4); }
  void put_u64(u64 v) { put_bytes(&v, 8); }
  void put_i64(i64 v) { put_u64(static_cast<u64>(v)); }
  void put_f64(double v) { put_bytes(&v, 8); }

  void put_string(const std::string& s) {
    put_u32(static_cast<u32>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void put_blob(const void* data, size_t n) {
    put_u64(n);
    const auto* p = static_cast<const u8*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Append `n` bytes with no length prefix (the aligned columnar layout
  /// derives lengths from element counts instead of embedded blob sizes).
  void put_raw(const void* data, size_t n) { put_bytes(data, n); }

  /// Pad with zero bytes until the write position is `align`-aligned
  /// relative to the start of the buffer (the aligned columnar on-disk
  /// layout wants every u64 column 8-byte aligned for zero-copy mapping).
  void align_to(size_t align) {
    while (buf_.size() % align != 0) buf_.push_back(0);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<u8>& bytes() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }

 private:
  void put_bytes(const void* p, size_t n) {
    const auto* b = static_cast<const u8*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<u8> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<u8>& buf) : buf_(buf.data()), size_(buf.size()) {}
  ByteReader(const u8* data, size_t size) : buf_(data), size_(size) {}

  u8 get_u8() { return get<u8>(); }
  u32 get_u32() { return get<u32>(); }
  u64 get_u64() { return get<u64>(); }
  i64 get_i64() { return static_cast<i64>(get_u64()); }
  double get_f64() { return get<double>(); }

  std::string get_string() {
    const u32 n = get_u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<u8> get_blob() {
    const u64 n = get_u64();
    need(n);
    std::vector<u8> v(buf_ + pos_, buf_ + pos_ + n);
    pos_ += n;
    return v;
  }

  bool at_end() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

  // --- zero-copy access (the mmap experiment loader) -----------------------
  /// Current read offset from the start of the buffer.
  size_t pos() const { return pos_; }
  /// Pointer to the next unread byte. Valid while the underlying buffer
  /// (e.g. a MappedFile) is alive; the caller checks lengths via skip().
  const u8* cursor() const { return buf_ + pos_; }
  /// Advance without copying; bounds-checked like every other read.
  void skip(u64 n) {
    need(n);
    pos_ += n;
  }
  /// Skip padding until the read offset is `align`-aligned relative to the
  /// start of the buffer (mirrors ByteWriter::align_to).
  void align_to(size_t align) {
    while (pos_ % align != 0) skip(1);
  }

 private:
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, buf_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  // Overflow-safe: `pos_ + n <= size_` would wrap for hostile blob lengths
  // near 2^64 and wave the read through.
  void need(u64 n) { DSP_CHECK(n <= size_ - pos_, "bytestream underrun"); }

  const u8* buf_;
  size_t size_;
  size_t pos_ = 0;
};

/// Write `bytes` to `path`, replacing it. Throws Error on I/O failure.
void write_file(const std::string& path, const std::vector<u8>& bytes);

/// Read all of `path`. Throws Error if unreadable.
std::vector<u8> read_file(const std::string& path);

}  // namespace dsprof
