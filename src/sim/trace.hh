// Run traces: the functional-model phase timeline (the paper's RE/SC/EX/AC/
// END phases, Fig. 1) plus a log of the messages that have no flow (drops
// and self-sends; every other message is recorded once, as a flow on the
// tracer). Figure benches render these directly; Fig. 15/16 are derived
// from `pattern()`.
//
// The span tracer is the single source of truth for phase events: `phase()`
// records a "core/<abbrev>" span (on the bound tracer — the Simulator binds
// its own — or an owned fallback for standalone use) and `phases()` &c. are
// derived from those spans, so the phase timeline and the lower-layer spans
// (gcs/, db/) can never disagree.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
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

class Trace {
 public:
  /// Phase spans land on `tracer` (nullptr unbinds; an owned fallback
  /// tracer is then used). Not owned.
  void bind_spans(obs::Tracer* tracer) { tracer_ = tracer; }

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

  /// Phase events, derived from the tracer's core/RE..core/END spans in
  /// recording order.
  std::vector<PhaseEvent> phases() const;
  /// Dropped messages and self-sends, in send order. Delivered cross-node
  /// messages are not here: read them from the tracer's flows.
  const std::vector<MessageEvent>& messages() const { return messages_; }

  /// Phase events of one request, ordered by (start, node).
  std::vector<PhaseEvent> phases_for(const std::string& request) const;

  /// Canonical phase pattern of a request: phases ordered by first start
  /// time, consecutive duplicates merged — e.g. {RE, SC, EX, END} for
  /// active replication. This is what Figures 15 and 16 tabulate.
  std::vector<Phase> pattern(const std::string& request) const;

  /// All distinct request ids seen, in first-appearance order.
  std::vector<std::string> requests() const;

  /// Clears the message log and, when using the owned fallback tracer, its
  /// spans. Spans on a bound tracer belong to its owner and are kept.
  void clear();

 private:
  obs::Tracer& sink();
  const obs::Tracer* source() const;

  std::vector<MessageEvent> messages_;
  PhaseHook phase_hook_;
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<obs::Tracer> own_;  // standalone Trace (no bound tracer)
};

/// Maps a paper abbreviation back to the phase (nullopt for other strings).
std::optional<Phase> phase_from_abbrev(std::string_view abbrev);

/// Renders a pattern as the paper prints it, e.g. "RE SC EX END".
std::string pattern_to_string(const std::vector<Phase>& pattern);

}  // namespace repli::sim
