// The flat decode paths parse the exact bytes the visitor codec writes, so
// the same (config, seed) run must export a byte-identical Chrome trace and
// identical storage digests whichever decode path is active. This is the
// whole-system form of the per-type oracle tests in tests/gcs/flat_wire_test
// — it would catch a flat path that diverges only under real traffic
// (retransmissions, packs, heartbeat storms).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/cluster.hh"
#include "obs/export_chrome.hh"
#include "wire/message.hh"

namespace repli::core {
namespace {

struct RunArtifacts {
  std::string chrome_trace;
  std::string folded;
  std::vector<std::uint64_t> digests;
};

RunArtifacts run_once(TechniqueKind kind, bool flat) {
  wire::set_flat_decode_enabled(flat);
  ClusterConfig cfg;
  cfg.kind = kind;
  cfg.replicas = 3;
  cfg.clients = 2;
  cfg.seed = 4242;
  cfg.net.jitter_mean = 200;
  cfg.net.drop_probability = 0.05;  // force ARQ retransmissions through LinkData
  Cluster cluster(cfg);
  for (int i = 0; i < 8; ++i) {
    cluster.run_op(i % 2, op_put("k" + std::to_string(i % 3), "v" + std::to_string(i)),
                   60 * sim::kSec);
  }
  cluster.settle(5 * sim::kSec);
  wire::set_flat_decode_enabled(true);

  RunArtifacts out;
  std::ostringstream trace;
  obs::write_chrome_trace(cluster.sim().tracer(), trace);
  out.chrome_trace = trace.str();
  std::ostringstream folded;
  obs::write_folded(cluster.sim().tracer(), folded);
  out.folded = folded.str();
  out.digests = cluster.storage_digests();
  return out;
}

class FlatRunIdentity : public ::testing::TestWithParam<TechniqueKind> {
 protected:
  void TearDown() override { wire::set_flat_decode_enabled(true); }
};

TEST_P(FlatRunIdentity, TracesAreBitIdenticalWithFlatDecodeOnOrOff) {
  const auto visitor = run_once(GetParam(), false);
  const auto flat = run_once(GetParam(), true);
  EXPECT_EQ(visitor.chrome_trace, flat.chrome_trace);
  EXPECT_EQ(visitor.folded, flat.folded);
  EXPECT_EQ(visitor.digests, flat.digests);
}

INSTANTIATE_TEST_SUITE_P(Techniques, FlatRunIdentity,
                         ::testing::Values(TechniqueKind::Active, TechniqueKind::EagerPrimary,
                                           TechniqueKind::Certification,
                                           TechniqueKind::LazyEverywhere));

}  // namespace
}  // namespace repli::core
