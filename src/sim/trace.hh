// Run traces: the functional-model phases of the paper (RE/SC/EX/AC/END,
// Fig. 1) and a log of the messages that have no flow (drops and
// self-sends; every other message is recorded once, as a flow on the
// tracer).
//
// The span tracer is the single source of truth for phase events:
// `Trace::phase()` records a "core/<abbrev>" span, and the free functions
// below (`phases`, `pattern`, `write_timeline`, ...) derive everything from
// those spans. They take any obs::Tracer, so a live run and a trace read
// back from its Chrome export (obs::read_chrome_trace) go through the same
// code. Fig. 15/16 are derived from `pattern()`.
#pragma once

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/time.hh"

namespace repli::sim {

/// The five phases of the paper's functional model (Section 2.2).
enum class Phase {
  Request,         // RE
  ServerCoord,     // SC
  Execution,       // EX
  AgreementCoord,  // AC
  Response,        // END
};

std::string_view phase_name(Phase p);        // long name, e.g. "Server Coordination"
std::string_view phase_abbrev(Phase p);      // paper abbreviation, e.g. "SC"

struct PhaseEvent {
  std::string request;  // request/transaction id the phase belongs to
  NodeId node = kNoNode;
  Phase phase{};
  Time start = 0;
  Time end = 0;
};

struct MessageEvent {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  // Wire type name. Views the message type's static kTypeName storage
  // (program lifetime), so the hot send path copies no string.
  std::string_view type;
  Time sent = 0;
  Time delivered = 0;  // meaningful only when !dropped
  std::size_t bytes = 0;
  bool dropped = false;
};

/// Phase recording, the phase hook, and the drop/self-send message log.
class Trace {
 public:
  /// Phase spans land on `tracer`, which must outlive this Trace.
  explicit Trace(obs::Tracer& tracer) : tracer_(tracer) {}

  /// Observer called on every recorded phase span — the protocol-phase
  /// boundary stream the exploration driver injects faults at. The hook
  /// runs inside the recording event; act on the simulator only by
  /// scheduling (e.g. schedule a crash at the current time), never by
  /// mutating processes re-entrantly. nullptr uninstalls.
  using PhaseHook =
      std::function<void(const std::string& request, NodeId node, Phase phase, Time start,
                         Time end)>;
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  /// Records the phase span and returns its id (for attaching attrs, e.g.
  /// the ok flag on a failed response).
  obs::SpanId phase(std::string request, NodeId node, Phase phase, Time start, Time end);
  void message(const MessageEvent& ev);

  /// Dropped messages and self-sends, in send order. Delivered cross-node
  /// messages are not here: read them from the tracer's flows.
  const std::vector<MessageEvent>& messages() const { return messages_; }

 private:
  obs::Tracer& tracer_;
  std::vector<MessageEvent> messages_;
  PhaseHook phase_hook_;
};

/// Phase events, derived from the tracer's core/RE..core/END spans in
/// recording order.
std::vector<PhaseEvent> phases(const obs::Tracer& tracer);

/// Phase events of one request, ordered by (start, node).
std::vector<PhaseEvent> phases_for(const obs::Tracer& tracer, const std::string& request);

/// Canonical phase pattern of a request: phases ordered by first start
/// time, consecutive duplicates merged — e.g. {RE, SC, EX, END} for
/// active replication. This is what Figures 15 and 16 tabulate.
std::vector<Phase> pattern(const obs::Tracer& tracer, const std::string& request);

/// All distinct request ids of phase spans, in first-appearance order.
std::vector<std::string> requests(const obs::Tracer& tracer);

/// ASCII phase diagram of one request (paper-figure style): one row per
/// node, labelled by `node_label`, phases scaled onto 60 columns.
void write_timeline(const obs::Tracer& tracer, const std::string& request,
                    const std::function<std::string(NodeId)>& node_label, std::ostream& os);

/// Maps a paper abbreviation back to the phase (nullopt for other strings).
std::optional<Phase> phase_from_abbrev(std::string_view abbrev);

/// Renders a pattern as the paper prints it, e.g. "RE SC EX END".
std::string pattern_to_string(const std::vector<Phase>& pattern);

}  // namespace repli::sim
