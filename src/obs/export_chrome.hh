// Chrome trace_event export and read-back.
//
// Writes a Tracer's spans in the Trace Event Format that chrome://tracing
// and https://ui.perfetto.dev load directly: one process ("replikit"), one
// track (tid) per node, "X" complete events for intervals, "i" instant
// events for point marks. Span request ids and attributes become event
// `args`, so clicking a slice in Perfetto shows which transaction paid for
// it. read_chrome_trace is the inverse: it rebuilds a Tracer from the file,
// so offline tools derive phase patterns, timelines and flame stacks with
// the same code as a live run.
#pragma once

#include <functional>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <string_view>

#include "obs/trace.hh"

namespace repli::obs {

/// Writes the full trace document ({"displayTimeUnit":"ms","traceEvents":[...]})
/// to `os`. Spans still open are drawn up to tracer.latest().
void write_chrome_trace(const Tracer& tracer, std::ostream& os);

/// Convenience: write_chrome_trace to a file. Returns false (and logs) on
/// I/O failure instead of throwing — tracing must never sink a run.
bool write_chrome_trace_file(const Tracer& tracer, const std::string& path);

/// A trace read back from its export. Flow::type views static storage on a
/// live tracer; here it views `names`, which the result owns.
struct ChromeTrace {
  Tracer tracer;
  std::set<std::string, std::less<>> names;  // flow type names
};

/// The inverse of write_chrome_trace. Spans are recorded in file order, so
/// ids, and with them containment ties, resolve exactly as in the exporting
/// tracer; "request" and "trace" args become the span's request and trace
/// id, every other string arg an attribute. Each start/finish flow pair
/// becomes one flow with both Lamport stamps; unmatched halves are dropped.
/// Nullopt on malformed input: not JSON, no traceEvents array, an event
/// that is not an object, or a span or flow event whose ts, dur, tid, id,
/// trace or lamport is not an integer in range (ts and dur must also be
/// non-negative).
std::optional<ChromeTrace> read_chrome_trace(std::string_view text);

}  // namespace repli::obs
