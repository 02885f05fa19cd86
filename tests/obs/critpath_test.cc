// Critical-path extraction on a hand-built trace: a known span/flow graph
// with exact expected tiling, so the backward walk, the innermost-span
// attribution, the honest Unattributed fallback, and the summary math are
// each pinned independently of any technique implementation.
#include <gtest/gtest.h>

#include "obs/context.hh"
#include "obs/critpath.hh"
#include "obs/trace.hh"

namespace repli::obs {
namespace {

std::uint64_t add_flow(Tracer& t, std::uint64_t trace, NodeId from, NodeId to, Time sent,
                       Time recv, std::int64_t lamport) {
  Flow f;
  f.trace = trace;
  f.from = from;
  f.to = to;
  f.sent = sent;
  f.recv = recv;
  f.lamport_send = lamport;
  f.type = "w.Test";
  const auto id = t.flow(f);
  t.flow_recv_lamport(id, lamport + 1);
  return id;
}

/// One transaction through client 9 -> primary 0 -> replica 1 and back,
/// with a deliberate 20us instrumentation hole on node 0 before the reply.
void record_txn(Tracer& t) {
  const auto trace = t.new_trace_id();
  ContextScope scope{t, TraceContext{trace, kNoSpan, 0}};
  t.record(9, "core/RE", 0, 10, "r1");
  add_flow(t, trace, 9, 0, 10, 60, 1);        // request
  t.record(0, "db/exec.op", 60, 160, "r1");
  add_flow(t, trace, 0, 1, 160, 220, 2);      // ship writeset
  t.record(1, "db/apply.writeset", 220, 260, "r1");
  add_flow(t, trace, 1, 0, 260, 300, 3);      // ack
  // [300, 320] on node 0: no span — must surface as Unattributed.
  add_flow(t, trace, 0, 9, 320, 380, 4);      // reply
  t.record(9, "core/END", 380, 385, "r1");
}

TEST(CritPath, BackwardWalkTilesTheKnownPathExactly) {
  Tracer t;
  record_txn(t);

  const auto paths = critical_paths(t);
  ASSERT_EQ(paths.size(), 1u);
  const auto& p = paths.front();
  EXPECT_EQ(p.request, "r1");
  EXPECT_EQ(p.client, 9);
  EXPECT_TRUE(p.ok);
  EXPECT_EQ(p.hops, 4);
  EXPECT_EQ(p.total(), 385);
  EXPECT_EQ(p.attributed(), 365);  // everything but the 20us hole

  struct Expect {
    SegmentKind kind;
    NodeId node;
    Time start;
    Time dur;
  };
  const Expect want[] = {
      {SegmentKind::ClientQueue, 9, 0, 10},     // dispatch before the send
      {SegmentKind::NetTransit, 9, 10, 50},     // request on the wire
      {SegmentKind::StorageExec, 0, 60, 100},   // db/exec.op
      {SegmentKind::NetTransit, 0, 160, 60},    // writeset ship
      {SegmentKind::ReplicaApply, 1, 220, 40},  // db/apply.writeset
      {SegmentKind::NetTransit, 1, 260, 40},    // ack
      {SegmentKind::Unattributed, 0, 300, 20},  // the instrumentation hole
      {SegmentKind::NetTransit, 0, 320, 60},    // reply
      {SegmentKind::ClientQueue, 9, 380, 5},    // delivery before core/END closes
  };
  ASSERT_EQ(p.segments.size(), std::size(want));
  Time cursor = p.start;
  for (std::size_t i = 0; i < std::size(want); ++i) {
    const auto& seg = p.segments[i];
    EXPECT_EQ(seg.kind, want[i].kind) << "segment " << i;
    EXPECT_EQ(seg.node, want[i].node) << "segment " << i;
    EXPECT_EQ(seg.start, want[i].start) << "segment " << i;
    EXPECT_EQ(seg.dur, want[i].dur) << "segment " << i;
    EXPECT_EQ(seg.start, cursor) << "segment " << i << ": tiling gap";
    cursor = seg.start + seg.dur;
  }
  EXPECT_EQ(cursor, p.end);
}

TEST(CritPath, FailedTransactionsStayOutOfTheSummary) {
  Tracer t;
  record_txn(t);
  {
    const auto trace = t.new_trace_id();
    ContextScope scope{t, TraceContext{trace, kNoSpan, 0}};
    t.record(8, "core/RE", 0, 10, "r2");
    const auto end_span = t.record(8, "core/END", 5000, 5001, "r2");
    t.attr(end_span, "ok", "0");  // client timeout
  }

  const auto paths = critical_paths(t);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_FALSE(paths[1].ok);

  const auto sum = summarize(paths);
  EXPECT_EQ(sum.txns, 1u);  // only the committed one
  EXPECT_EQ(sum.total_us, 385);
  EXPECT_EQ(sum.attributed_us, 365);
  EXPECT_NEAR(sum.coverage, 365.0 / 385.0, 1e-9);

  // One stat row per taxonomy kind; net_transit saw 50+60+40+60 = 210us.
  ASSERT_EQ(sum.segments.size(), kSegmentKindCount);
  for (const auto& stat : sum.segments) {
    if (stat.kind == SegmentKind::NetTransit) {
      EXPECT_EQ(stat.txns_touched, 1u);
      EXPECT_EQ(stat.p50_us, 210);
      EXPECT_EQ(stat.max_us, 210);
      EXPECT_DOUBLE_EQ(stat.mean_us, 210.0);
    }
  }
}

TEST(CritPath, DroppedFlowsAreNeverFollowed) {
  Tracer t;
  const auto trace = t.new_trace_id();
  ContextScope scope{t, TraceContext{trace, kNoSpan, 0}};
  t.record(9, "core/RE", 0, 10, "r1");
  // The message never got a delivery lamport (dropped in flight): the walk
  // must not hop it, leaving the whole server time unattributed instead of
  // inventing a causal chain.
  Flow f;
  f.trace = trace;
  f.from = 0;
  f.to = 9;
  f.sent = 50;
  f.recv = 90;
  f.lamport_send = 1;
  f.type = "w.Test";
  t.flow(f);
  t.record(9, "core/END", 100, 101, "r1");

  const auto paths = critical_paths(t);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths.front().hops, 0);
  EXPECT_EQ(paths.front().attributed(), 0);
}

TEST(CritPath, ClassifierCoversTheInstrumentationVocabulary) {
  EXPECT_EQ(classify_span_name("db/lock.wait"), SegmentKind::LockWait);
  EXPECT_EQ(classify_span_name("db/exec.op"), SegmentKind::StorageExec);
  EXPECT_EQ(classify_span_name("db/wal.flush"), SegmentKind::StorageExec);
  EXPECT_EQ(classify_span_name("db/apply.writeset"), SegmentKind::ReplicaApply);
  EXPECT_EQ(classify_span_name("core/queue.wait"), SegmentKind::SubmitWait);
  EXPECT_EQ(classify_span_name("gcs/abcast.submit"), SegmentKind::SubmitWait);
  EXPECT_EQ(classify_span_name("gcs/abcast.order"), SegmentKind::Ordering);
  EXPECT_EQ(classify_span_name("gcs/consensus.round"), SegmentKind::Ordering);
  EXPECT_EQ(classify_span_name("gcs/link.retransmit"), SegmentKind::Retransmit);
  EXPECT_EQ(classify_span_name("core/client.retry"), SegmentKind::Retransmit);
  EXPECT_EQ(classify_span_name("core/lock.retry_backoff"), SegmentKind::Retransmit);
  EXPECT_EQ(classify_span_name("core/group_commit"), SegmentKind::CommitFanin);
  EXPECT_EQ(classify_span_name("core/ac.ship"), SegmentKind::CommitFanin);
  EXPECT_EQ(classify_span_name("core/AC"), SegmentKind::CommitFanin);
  EXPECT_EQ(classify_span_name("core/SC"), SegmentKind::Ordering);
  EXPECT_EQ(classify_span_name("core/EX"), SegmentKind::StorageExec);
  EXPECT_EQ(classify_span_name("something/else"), SegmentKind::Other);
}

}  // namespace
}  // namespace repli::obs
