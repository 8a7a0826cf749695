// dsprofd wire protocol (DESIGN.md §3.3): length-prefixed, versioned frames
// carrying columnar event batches from collector clients to the daemon.
//
// Frame layout (little-endian, 12-byte header):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic     0x44535257 ("DSRW" read as LE u32)
//        4     1  version   kWireVersion (currently 4: Hello carries a
//                           per-counter set id plus the multiplexing slice
//                           table, and EventBatch payloads always include
//                           the per-event set column; v3 adopted the aligned
//                           columnar EventBatch layout so the daemon folds
//                           straight out of the frame bytes; v2 grew an
//                           allocation-site PC on Alloc entries. Peers on
//                           another version are rejected. The set column is
//                           unconditional, zero-filled when the client did
//                           not multiplex, exactly as in events.bin)
//        5     1  type      FrameType
//        6     2  flags     frame-type specific (SnapshotReq bit 0 =
//                           merged fleet view; 0 everywhere else)
//        8     4  len       payload length; <= kMaxPayload (64 MB)
//       12   len  payload   type-specific encoding (below)
//
// Payload encodings reuse the experiment layer's codecs: the Hello's run
// context is the events.bin run header (experiment::put_run_header) and an
// event batch is the EventStore aligned columnar codec — the same
// 8-byte-aligned columns events.bin stores on disk. The bounds checks of
// both therefore apply to the socket too, and the receiver adopts a batch's
// columns as zero-copy views into the frame payload (no per-event decode
// work). The decoders here convert any Error into Status{Malformed}: a
// hostile client can kill its session, never the daemon.
//
// Conversation (client side):
//   Hello -> HelloAck, then any number of EventBatch / Alloc frames,
//   Flush -> FlushAck (server has folded everything received),
//   SnapshotReq -> Snapshot (rendered JSON report, see reports.hpp),
//   StatsReq -> Stats, Close -> CloseAck. The server answers a protocol
//   violation with an Error frame and closes the session.
//
// A SnapshotReq with kSnapshotMergedFlag set asks for the *fleet* view:
// the server merges every retained session's live aggregates (server.hpp)
// and renders one multi-experiment report. Merged requests (and StatsReq /
// Close) need no preceding Hello — a monitoring client can connect, query
// and leave without streaming anything.
#pragma once

#include <deque>
#include <vector>

#include "experiment/experiment.hpp"
#include "serve/status.hpp"
#include "support/bytestream.hpp"

namespace dsprof::serve {

inline constexpr u32 kWireMagic = 0x44535257;  // "WRSD" on disk -> "DSRW" LE
inline constexpr u8 kWireVersion = 4;
inline constexpr size_t kFrameHeaderSize = 12;
inline constexpr size_t kMaxPayload = 64u << 20;  // 64 MB

enum class FrameType : u8 {
  Hello = 1,     // image identity + counter specs (handshake)
  HelloAck,      // session id
  EventBatch,    // columnar EventStore bytes
  Alloc,         // allocation log entries (address, size, site PC)
  Flush,         // barrier: fold everything received so far
  FlushAck,      // events_in / events_reduced / events_dropped at barrier
  SnapshotReq,   // render the live aggregates
  Snapshot,      // JSON report + accounting
  StatsReq,      // server-wide introspection
  Stats,         // JSON stats
  Close,         // finalize the session
  CloseAck,      //
  Error,         // status code + message (server -> client, then close)
};

const char* frame_type_name(FrameType t);

/// SnapshotReq flags bit 0: render the merged cross-session (fleet) view
/// instead of the requesting session's own aggregates.
inline constexpr u16 kSnapshotMergedFlag = 1;

struct Frame {
  FrameType type = FrameType::Error;
  u16 flags = 0;
  std::vector<u8> payload;
};

/// Encode one frame (header + payload) into a contiguous byte string.
std::vector<u8> encode_frame(FrameType type, const std::vector<u8>& payload, u16 flags = 0);

/// Incremental frame parser: feed() raw transport bytes in any chunking;
/// complete frames queue up for next_frame(). Corruption (bad magic, bad
/// version, oversized length) is detected from the header alone and
/// reported once — the stream is poisoned afterwards (a framing error
/// leaves no way to resynchronize).
class FrameReader {
 public:
  explicit FrameReader(size_t max_payload = kMaxPayload) : max_payload_(max_payload) {}

  /// Consume `n` bytes; returns non-Ok on a framing error (stream poisoned).
  Status feed(const u8* data, size_t n);

  /// Pop the next complete frame, if any.
  bool next_frame(Frame& out);

  /// True if a frame header or payload is partially buffered — i.e. the
  /// peer disconnected mid-frame and the partial bytes must be discarded.
  bool mid_frame() const { return !buf_.empty(); }

  size_t frames_decoded() const { return frames_decoded_; }

 private:
  size_t max_payload_;
  std::vector<u8> buf_;     // partial frame bytes
  std::deque<Frame> ready_;
  bool poisoned_ = false;
  size_t frames_decoded_ = 0;
};

// --- payload codecs ---------------------------------------------------------
// Encoders return the payload bytes; decoders return Status and never throw
// (bytestream underruns are caught and mapped to Malformed).

/// Handshake: the client name, the image (symbol tables), then the run
/// header of `ex` (experiment::put_run_header: counter specs with set ids,
/// clock, machine geometry, run totals and the slice table) — everything
/// Analysis needs as rendering context besides the events themselves.
/// decode_hello fills those fields of `ex` and leaves the rest alone; the
/// server keeps the slice table so snapshot renders apply the same
/// renormalization an offline analysis of the saved experiment would.
std::vector<u8> encode_hello(const std::string& client_name, const experiment::Experiment& ex);
Status decode_hello(const std::vector<u8>& payload, std::string& client_name,
                    experiment::Experiment& ex);

std::vector<u8> encode_hello_ack(u64 session_id);
Status decode_hello_ack(const std::vector<u8>& payload, u64& session_id);

/// Event batches are the EventStore aligned columnar codec verbatim, the
/// events.bin column section. The range form is the client's batch slicer:
/// it emits events [begin, end) directly from the source store
/// (serialize_range_aligned — handles remapped with one probe per event)
/// without materializing an intermediate sub-store.
std::vector<u8> encode_event_batch(const experiment::EventStore& events);
std::vector<u8> encode_event_batch(const experiment::EventStore& events, size_t begin,
                                   size_t end);
/// Zero-copy decode: the payload is moved into the store as its backing
/// storage and the columns become views into it after validation. The
/// result is mapped (fold/serialize fine, append an error), which is all
/// the daemon needs for fold-and-discard.
Status decode_event_batch(std::vector<u8>&& payload, experiment::EventStore& out);

std::vector<u8> encode_allocs(const std::vector<machine::AllocRecord>& allocs);
Status decode_allocs(const std::vector<u8>& payload, std::vector<machine::AllocRecord>& out);

/// FlushAck / Snapshot both carry the session accounting triple; Snapshot
/// adds the rendered JSON report.
struct Accounting {
  u64 events_in = 0;
  u64 events_reduced = 0;
  u64 events_dropped = 0;
};

std::vector<u8> encode_flush_ack(const Accounting& a);
Status decode_flush_ack(const std::vector<u8>& payload, Accounting& out);

std::vector<u8> encode_snapshot(const Accounting& a, const std::string& json_report);
Status decode_snapshot(const std::vector<u8>& payload, Accounting& a, std::string& json_report);

std::vector<u8> encode_stats(const std::string& json);
Status decode_stats(const std::vector<u8>& payload, std::string& json);

std::vector<u8> encode_error(const Status& s);
Status decode_error(const std::vector<u8>& payload, Status& out);

}  // namespace dsprof::serve
