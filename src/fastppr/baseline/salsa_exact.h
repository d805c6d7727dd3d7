#ifndef FASTPPR_BASELINE_SALSA_EXACT_H_
#define FASTPPR_BASELINE_SALSA_EXACT_H_

#include <cstddef>
#include <vector>

#include "fastppr/graph/csr_graph.h"
#include "fastppr/graph/types.h"

namespace fastppr {

/// Exact SALSA scores computed by power iteration over the alternating
/// forward/backward chain with epsilon-resets before forward steps — the
/// chain that SalsaWalkStore (the two-sided BasicWalkStore) simulates.
/// The state space is {hub, authority} x nodes; the returned
/// hub/authority vectors are the two halves of the stationary
/// distribution, each normalized to sum to 1, so they are directly
/// comparable to SalsaWalkStore::NormalizedEstimate(v, side) on side 0
/// (hub) and side 1 (authority), and to the personalized stitched-walk
/// estimates.
///
/// As epsilon -> 0 the global authority vector converges to indegree/m and
/// the hub vector to outdegree/m (the classical SALSA fixed point).
struct SalsaOptions {
  double epsilon = 0.2;
  double tolerance = 1e-12;
  std::size_t max_iters = 2000;
};

struct SalsaResult {
  std::vector<double> hub;        ///< sums to 1
  std::vector<double> authority;  ///< sums to 1
  std::size_t iterations = 0;
};

/// Global SALSA: resets (and dangling exits) jump to a uniform node in hub
/// role.
SalsaResult SalsaExact(const CsrGraph& g, const SalsaOptions& opts);

/// Personalized SALSA (the paper's recommendation engine): resets jump to
/// `seed` in hub role.
SalsaResult PersonalizedSalsaExact(const CsrGraph& g, NodeId seed,
                                   const SalsaOptions& opts);

}  // namespace fastppr

#endif  // FASTPPR_BASELINE_SALSA_EXACT_H_
