// Figure 12: eager primary copy with multi-operation transactions — the
// EX -> AC (change propagation) loop runs once per operation, then 2PC.
#include "bench/figure.hh"

int main() {
  return repli::bench::figure_multi_op(
      repli::core::TechniqueKind::EagerPrimary, "Figure 12",
      "per-operation change propagation, final Two Phase Commit",
      {repli::sim::Phase::Execution, repli::sim::Phase::AgreementCoord});
}
