#include "fastppr/core/ppr_walker.h"

#include <algorithm>

namespace fastppr {

void RankVisitsDenseInto(const std::vector<int64_t>& counts,
                         const std::vector<NodeId>& touched,
                         const std::vector<uint8_t>& excluded, std::size_t k,
                         uint64_t walk_length, std::vector<ScoredNode>* tmp,
                         std::vector<ScoredNode>* ranked) {
  tmp->clear();
  for (NodeId node : touched) {
    if (excluded[node]) continue;
    ScoredNode s;
    s.node = node;
    s.visits = counts[node];
    s.score = walk_length > 0 ? static_cast<double>(s.visits) /
                                    static_cast<double>(walk_length)
                              : 0.0;
    tmp->push_back(s);
  }
  const std::size_t take = std::min(k, tmp->size());
  std::partial_sort(tmp->begin(), tmp->begin() + take, tmp->end(),
                    [](const ScoredNode& a, const ScoredNode& b) {
                      if (a.visits != b.visits) return a.visits > b.visits;
                      return a.node < b.node;
                    });
  ranked->assign(tmp->begin(), tmp->begin() + take);
}

}  // namespace fastppr
