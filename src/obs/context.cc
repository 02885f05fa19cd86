#include "obs/context.hh"

#include <algorithm>

#include "util/assert.hh"

namespace repli::obs {

std::int64_t& LamportClocks::slot(NodeId node) {
  util::ensure(node >= 0, "LamportClocks: negative node id");
  if (static_cast<std::size_t>(node) >= clocks_.size()) {
    clocks_.resize(static_cast<std::size_t>(node) + 1, 0);
  }
  return clocks_[static_cast<std::size_t>(node)];
}

std::int64_t LamportClocks::tick(NodeId node) { return ++slot(node); }

std::int64_t LamportClocks::merge(NodeId node, std::int64_t seen) {
  std::int64_t& clock = slot(node);
  clock = std::max(clock, seen) + 1;
  return clock;
}

std::int64_t LamportClocks::value(NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= clocks_.size()) return 0;
  return clocks_[static_cast<std::size_t>(node)];
}

}  // namespace repli::obs
