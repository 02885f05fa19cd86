#include "obs/trace.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/profile.hh"

namespace repli::obs {
namespace {

TEST(Tracer, BeginEndRecordsAnInterval) {
  Tracer t;
  const auto id = t.begin(0, "gcs/consensus.round", 100, "req-1");
  t.end(id, 250);
  const auto* span = t.find(id);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->start, 100);
  EXPECT_EQ(span->end, 250);
  EXPECT_FALSE(span->open);
  EXPECT_EQ(span->request, "req-1");
}

TEST(Tracer, ContainmentResolvesParent) {
  Tracer t;
  const auto outer = t.record(0, "core/EX", 100, 500);
  const auto inner = t.record(0, "db/exec.op", 200, 300);
  EXPECT_EQ(t.parent_of(inner), outer);
  EXPECT_EQ(t.parent_of(outer), kNoSpan);
}

TEST(Tracer, SmallestEnclosingSpanWins) {
  Tracer t;
  const auto wide = t.record(0, "core/AC", 0, 1000);
  const auto mid = t.record(0, "gcs/consensus.round", 100, 600);
  const auto leaf = t.record(0, "db/exec.op", 200, 300);
  EXPECT_EQ(t.parent_of(leaf), mid);
  EXPECT_EQ(t.parent_of(mid), wide);
}

TEST(Tracer, ContainmentIsPerNode) {
  Tracer t;
  t.record(1, "core/EX", 0, 1000);
  const auto other = t.record(2, "db/exec.op", 200, 300);
  EXPECT_EQ(t.parent_of(other), kNoSpan);  // enclosing span is on another node
}

TEST(Tracer, IdenticalIntervalsNestUnderEarlierRecorded) {
  // Common in a discrete-event sim: no simulated time passes inside one
  // handler, so the phase and its sub-span share [t, t]. The span recorded
  // first is the semantic parent.
  Tracer t;
  const auto phase = t.record(0, "core/EX", 400, 400);
  const auto op = t.record(0, "db/exec.op", 400, 400);
  EXPECT_EQ(t.parent_of(op), phase);
}

TEST(Tracer, ZeroWidthSpanAtIntervalEndNests) {
  Tracer t;
  const auto outer = t.record(0, "core/AC", 100, 400);
  const auto flush = t.record(0, "db/wal.flush", 400, 400);
  EXPECT_EQ(t.parent_of(flush), outer);
}

TEST(Tracer, InstantsNestButNeverParent) {
  Tracer t;
  const auto outer = t.record(0, "core/SC", 100, 500);
  const auto mark = t.instant(0, "gcs/fd.suspect", 300);
  const auto interval = t.record(0, "gcs/abcast.order", 300, 350);
  EXPECT_EQ(t.parent_of(interval), outer);  // never the instant
  // The mark itself nests under the smallest enclosing interval.
  EXPECT_EQ(t.parent_of(mark), interval);
  const auto lone_mark = t.instant(0, "net/drop", 450);
  EXPECT_EQ(t.parent_of(lone_mark), outer);
}

TEST(Tracer, HasAncestorNamedWalksUpThePrefixes) {
  Tracer t;
  t.record(0, "core/EX", 0, 1000);
  const auto round = t.record(0, "gcs/consensus.round", 100, 800);
  const auto op = t.record(0, "db/exec.op", 200, 300);
  EXPECT_TRUE(t.has_ancestor_named(op, "gcs/consensus"));
  EXPECT_TRUE(t.has_ancestor_named(op, "core/"));
  EXPECT_TRUE(t.has_ancestor_named(round, "core/EX"));
  EXPECT_FALSE(t.has_ancestor_named(round, "db/"));
}

TEST(Tracer, ChildrenOfListsDirectChildrenOnly) {
  Tracer t;
  const auto root = t.record(0, "core/AC", 0, 1000);
  const auto mid = t.record(0, "gcs/consensus.round", 100, 900);
  t.record(0, "db/exec.op", 200, 300);  // grandchild of root
  const auto kids = t.children_of(root);
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(kids.front(), mid);
}

TEST(Tracer, CloseOpenEndsEverythingStillRunning) {
  Tracer t;
  const auto a = t.begin(0, "gcs/consensus.round", 100);
  const auto b = t.begin(1, "db/lock.wait", 150);
  t.close_open(700);
  EXPECT_FALSE(t.find(a)->open);
  EXPECT_EQ(t.find(a)->end, 700);
  EXPECT_EQ(t.find(b)->end, 700);
}

TEST(Tracer, AttrsAccumulate) {
  Tracer t;
  const auto id = t.begin(0, "gcs/consensus.round", 0);
  t.attr(id, "round", "1");
  t.attr(id, "outcome", "decided");
  t.end(id, 10);
  const auto& attrs = t.find(id)->attrs;
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0].first, "round");
  EXPECT_EQ(attrs[1].second, "decided");
}

TEST(Tracer, NamedFiltersByPrefix) {
  Tracer t;
  t.record(0, "db/lock.wait", 0, 10);
  t.record(0, "db/wal.flush", 5, 10);
  t.record(0, "core/EX", 0, 20);
  EXPECT_EQ(t.named("db/").size(), 2u);
  EXPECT_EQ(t.named("db/wal").size(), 1u);
  EXPECT_EQ(t.named("net/").size(), 0u);
}

TEST(Tracer, ResolveIsStableAcrossLaterInserts) {
  Tracer t;
  const auto outer = t.record(0, "core/EX", 0, 100);
  const auto in1 = t.record(0, "db/exec.op", 10, 20);
  EXPECT_EQ(t.parent_of(in1), outer);  // forces a resolve
  const auto in2 = t.record(0, "db/exec.op", 30, 40);
  EXPECT_EQ(t.parent_of(in2), outer);  // re-resolves after the insert
  EXPECT_EQ(t.parent_of(in1), outer);
}

Flow edge(NodeId from, NodeId to, Time sent, Time recv, std::size_t bytes = 0) {
  Flow f;
  f.from = from;
  f.to = to;
  f.sent = sent;
  f.recv = recv;
  f.bytes = bytes;
  return f;
}

TEST(Tracer, FreshTracerAllocatesNothing) {
  const std::uint64_t before = thread_alloc_count();
  {
    Tracer t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.flows().empty());
    EXPECT_EQ(t.spans().blocks(), 0u);
    EXPECT_EQ(t.flows().blocks(), 0u);
  }
  EXPECT_EQ(thread_alloc_count() - before, 0u);
}

TEST(Tracer, RecordAddressesSurviveLaterAppends) {
  Tracer t;
  const auto first = t.begin(0, "core/EX", 0, "req-1");
  const Span* span = t.find(first);
  const std::uint64_t flow_id = t.flow(edge(0, 1, 0, 5));
  const Flow* flow = &t.flows()[flow_id - 1];
  // Enough records to fill many blocks of both stores.
  for (int i = 0; i < 5000; ++i) {
    const Time at = i + 1;
    t.end(t.begin(1, "gcs/link.send", at), at);
    t.record(2, "db/exec.op", at, at + 1, "req-" + std::to_string(i));
    t.flow(edge(1, 2, at, at + 3));
  }
  EXPECT_GT(t.spans().blocks(), 1u);
  EXPECT_GT(t.flows().blocks(), 1u);
  EXPECT_EQ(t.find(first), span);
  EXPECT_EQ(span->name, "core/EX");
  EXPECT_TRUE(span->open);
  t.end(first, 9000);
  EXPECT_EQ(span->end, 9000);
  EXPECT_EQ(&t.flows()[flow_id - 1], flow);
  t.flow_recv_lamport(flow_id, 42);
  EXPECT_EQ(flow->lamport_recv, 42);
  EXPECT_EQ(flow->to, 1);
}

TEST(Tracer, IndexingByIdMatchesRecordingOrder) {
  // What the tracer held as a std::vector: spans()[id - 1] and flows()
  // [id - 1] are the id-th records, in recording order, in every view.
  Tracer t;
  struct Expected {
    NodeId node;
    std::string name;
    Time start;
    Time end;
  };
  std::vector<Expected> expected;
  for (int i = 0; i < 12; ++i) {
    const NodeId node = i % 3;
    const std::string name = i % 2 == 0 ? "core/EX" : "db/exec.op";
    const SpanId id = t.record(node, name, i * 10, i * 10 + 5);
    EXPECT_EQ(id, static_cast<SpanId>(expected.size() + 1));
    expected.push_back({node, name, i * 10, i * 10 + 5});
    t.flow(edge(node, node + 1, i, i + 1, 10u + static_cast<std::size_t>(i)));
  }
  ASSERT_EQ(t.size(), expected.size());
  std::size_t i = 0;
  for (const Span& span : t.spans()) {
    EXPECT_EQ(span.id, i + 1);
    EXPECT_EQ(&span, &t.spans()[i]);
    EXPECT_EQ(&span, t.find(span.id));
    EXPECT_EQ(span.node, expected[i].node);
    EXPECT_EQ(span.name, expected[i].name);
    EXPECT_EQ(span.start, expected[i].start);
    EXPECT_EQ(span.end, expected[i].end);
    ++i;
  }
  EXPECT_EQ(i, expected.size());
  ASSERT_EQ(t.flows().size(), 12u);
  for (std::size_t k = 0; k < t.flows().size(); ++k) {
    EXPECT_EQ(t.flows()[k].id, k + 1);
    EXPECT_EQ(t.flows()[k].bytes, 10u + k);
  }
  EXPECT_EQ(t.find(13), nullptr);
  t.clear();
  EXPECT_EQ(t.spans().blocks(), 0u);
  EXPECT_EQ(t.flows().blocks(), 0u);
}

}  // namespace
}  // namespace repli::obs
