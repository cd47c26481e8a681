// Reliable delivery over the lossy virtual network.
//
// ReliableChannel turns Comm's raw (droppable, corruptible) point-to-point
// sends into an in-order, integrity-checked stream, modelling the ARQ
// protocol a real message layer runs over an unreliable link:
//
//   * every logical message is framed with a sequence number (per
//     destination+tag stream) and a CRC32 over the frame body;
//   * the sender retransmits until a copy is delivered intact, charging an
//     exponential virtual-time backoff to each retry's arrival (the sender's
//     knowledge of delivery models the ack protocol — see
//     Comm::send_attempt);
//   * the receiver CRC-checks every arriving copy, discards corrupt or stale
//     duplicates, and delivers exactly the expected sequence number.
//
// Determinism: fault decisions are keyed on (src, dst, tag, phase, attempt),
// so the attempt sequence — and therefore every counter and every virtual
// timestamp — is a pure function of the fault plan, identical on SeqEngine
// and ThreadEngine. Channel state is per-rank and only touched by that
// rank's phase body, so no synchronisation is needed.
#pragma once

#include "sim/buffer_pool.hpp"
#include "sim/comm.hpp"
#include "sim/message.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

namespace pcmd::sim {

struct ReliablePolicy {
  int max_attempts = 10;        // give up (throw) after this many copies
  double base_backoff = 5e-5;   // virtual seconds before the first retry
  double backoff_factor = 2.0;  // multiplier per subsequent retry
};

// Per-channel accounting. Order-independent totals: identical across
// engines for the same fault plan.
struct ChannelCounters {
  std::uint64_t sends = 0;             // logical messages sent
  std::uint64_t retransmissions = 0;   // extra attempts beyond the first
  std::uint64_t corrupt_discarded = 0; // frames dropped by CRC/magic check
  std::uint64_t recv_timeouts = 0;     // recv_deadline deadlines that expired
};

class ReliableChannel {
 public:
  explicit ReliableChannel(ReliablePolicy policy = {}) : policy_(policy) {}

  const ChannelCounters& counters() const { return counters_; }

  // Sends `payload` so that it will be delivered intact, retrying dropped or
  // corrupted copies with exponential virtual-time backoff. Throws
  // PeerDeadError if max_attempts copies all fail (a link past the fault
  // model's design point — the peer is treated as dead).
  void send(Comm& comm, int dst, int tag, const Buffer& payload);

  // Receives the next in-sequence payload from (src, tag), draining corrupt
  // or duplicate copies. Throws ProtocolError on protocol violations (no
  // frame visible, or a sequence gap meaning a message was lost for good).
  Buffer recv(Comm& comm, int src, int tag);

  // recv with a virtual-time deadline: nullopt if no intact in-sequence
  // frame is visible (the peer is silent — crashed or never sent), with the
  // clock advanced by `timeout`. The stream position is unchanged on
  // timeout, so a later recv still expects the same sequence number.
  std::optional<Buffer> recv_deadline(Comm& comm, int src, int tag,
                                      double timeout);

  // Frame header size, for tests sizing payloads.
  static constexpr std::size_t kFrameHeaderBytes = 16;

 private:
  using StreamKey = std::pair<int, int>;  // (peer rank, tag)

  // Builds a frame into a pool-backed buffer (capacity recycled from
  // previously discarded frames).
  Buffer frame(std::uint32_t seq, std::uint32_t attempt,
               const Buffer& payload);
  // Integrity-checks a frame and strips the header in place: on success
  // `raw` *becomes* the payload (no allocation, no copy) and the sequence
  // number is returned; nullopt when the frame is corrupt (`raw` untouched,
  // ready to be released back to the pool).
  std::optional<std::uint32_t> parse_in_place(Buffer& raw) const;

  ReliablePolicy policy_;
  ChannelCounters counters_;
  BufferPool pool_;
  std::map<StreamKey, std::uint32_t> send_seq_;
  std::map<StreamKey, std::uint32_t> recv_seq_;
};

}  // namespace pcmd::sim
