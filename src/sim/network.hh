// Simulated point-to-point network.
//
// Latency = base + Exp(jitter_mean) + bytes/bandwidth; messages can be
// dropped randomly or by a partition predicate; links do not preserve send
// order (the asynchronous model of the paper; gcs::FifoChannel restores it
// where a protocol needs it).
// Every send really encodes the message to bytes and every delivery decodes
// a fresh object through the wire registry.
//
// Each message is recorded exactly once: a cross-node message that is put
// on the wire becomes an obs::Flow on the simulator's tracer (coalesced
// ones when their frame is flushed), and a message with no flow — a drop or
// a self-send — becomes an entry in the Trace message log.
//
// A heartbeat's delivery is a background event (sim/event_heap.hh): it is
// liveness traffic, not work, so it never keeps a quiescent run going.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/batcher.hh"
#include "sim/time.hh"
#include "sim/trace.hh"
#include "wire/codec.hh"
#include "wire/message.hh"

namespace repli::sim {

class Simulator;

struct NetworkConfig {
  Time base_latency = 100 * kUsec;   // fixed one-way cost
  Time jitter_mean = 50 * kUsec;     // mean of exponential jitter
  double bytes_per_usec = 100.0;     // bandwidth (transmission delay = size/bw)
  double drop_probability = 0.0;     // iid per message
  /// Frame coalescing: with coalesce_window > 0, cross-link messages to the
  /// same destination are gathered for up to the window (or until
  /// kCoalesceMaxMsgs) and shipped as ONE physical frame — messages_sent()
  /// then counts frames, while per_type_count() keeps counting logical
  /// messages. Heartbeats ("gcs.Heartbeat") are exempt so failure detection
  /// latency and the heartbeat-exclusion accounting stay exact. 0 (the
  /// default) is the exact legacy per-message path.
  Time coalesce_window = 0;
};

/// Most logical messages one coalesced frame carries.
inline constexpr int kCoalesceMaxMsgs = 16;

class Network {
 public:
  Network(Simulator& sim, NetworkConfig config);

  /// Sends `msg` from `from` to `to`. Self-sends are delivered with zero
  /// network cost (but still on a fresh event, never re-entrantly).
  void send(NodeId from, NodeId to, wire::MessagePtr msg);

  /// Cuts/heals links according to `blocked(from, to)`; nullptr heals all.
  void set_partition(std::function<bool(NodeId, NodeId)> blocked);

  const NetworkConfig& config() const { return config_; }

  // Accounting (since construction).
  std::int64_t messages_sent() const { return messages_sent_; }
  std::int64_t bytes_sent() const { return bytes_sent_; }
  // Messages and bytes per wire type, one entry for each type sent so far,
  // in name order. Built on each call from a small per-type table that a
  // send finds by type id; keys view the message types' static kTypeName
  // storage, so neither sends nor these calls copy type names.
  std::map<std::string_view, std::int64_t> per_type_count() const;
  std::map<std::string_view, std::int64_t> per_type_bytes() const;
  /// Messages/bytes excluding a wire type (e.g. failure-detector heartbeats).
  std::int64_t messages_excluding(std::string_view type) const;
  std::int64_t bytes_excluding(std::string_view type) const;

  // Saturation gauges (sampled by the cluster monitor): physical frames
  // currently scheduled but not yet delivered, in total and on the fullest
  // single (from, to) link.
  std::int64_t inflight_total() const { return inflight_total_; }
  std::int64_t inflight_max_link() const;

 private:
  /// One logical message buffered for a coalesced frame.
  struct FrameEntry {
    wire::WireContext wctx;
    std::uint64_t src_span = 0;
    wire::MessagePtr msg;  // decoded copy
    std::string_view type;
    std::size_t bytes = 0;
    Time enqueued = 0;
    std::uint64_t flow_id = 0;  // assigned at flush
  };

  /// Per-wire-type tally; few types per run, so a linear scan by id wins.
  struct TypeTally {
    wire::TypeId id = 0;
    std::string_view name;
    std::int64_t count = 0;
    std::int64_t bytes = 0;
  };

  Time delivery_delay(NodeId from, NodeId to, std::size_t bytes);
  TypeTally& tally_for(const wire::Message& msg, std::string_view type);
  const TypeTally* find_tally(std::string_view type) const;
  /// In-flight frame count of one (from, to) link; grows the table when a
  /// node id first exceeds it.
  std::int64_t& inflight_at(NodeId from, NodeId to);
  /// Records a dropped message: trace event, net/drop instant, counters.
  void drop(MessageEvent& ev, const char* reason);
  void flush_frame(NodeId from, NodeId to, std::vector<FrameEntry> entries);

  Simulator& sim_;
  NetworkConfig config_;
  std::function<bool(NodeId, NodeId)> blocked_;
  std::map<std::pair<NodeId, NodeId>, Batcher<FrameEntry, Simulator>> frames_;  // coalescing
  // Scheduled, undelivered frames per link: an inflight_nodes_ x
  // inflight_nodes_ table, row = sender.
  std::vector<std::int64_t> inflight_;
  std::size_t inflight_nodes_ = 0;
  std::int64_t inflight_total_ = 0;
  std::int64_t messages_sent_ = 0;
  std::int64_t bytes_sent_ = 0;
  std::vector<TypeTally> per_type_;
  wire::Writer scratch_;  // reused per send: encode allocates only to warm up
};

}  // namespace repli::sim
