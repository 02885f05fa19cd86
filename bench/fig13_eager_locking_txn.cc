// Figure 13: eager update everywhere (distributed locking) with
// multi-operation transactions — SC (lock) -> EX loops per operation.
#include "bench/figure.hh"

int main() {
  return repli::bench::figure_multi_op(
      repli::core::TechniqueKind::EagerLocking, "Figure 13",
      "per-operation lock round and execution, final Two Phase Commit",
      {repli::sim::Phase::ServerCoord});
}
