// Who-to-follow: the paper's motivating application (and the basis of
// Twitter's WTF system), served the way the paper deploys it — walk
// segments partitioned across shards behind a concurrent query service.
// The follow stream is ingested in windows through a 4-shard
// ShardedEngine<IncrementalSalsa>; global top authorities come from the
// service's lock-free snapshot reads, and per-user recommendations from
// personalized SALSA walks stitched across the shards, compared side by
// side with HITS and COSINE baselines.
//
//   build/examples/who_to_follow

#include <cstdio>
#include <span>
#include <vector>

#include "fastppr/baseline/cosine.h"
#include "fastppr/baseline/hits.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/csr_graph.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/table_printer.h"

using namespace fastppr;

int main() {
  // A social graph with triadic closure, so "friends of friends" are the
  // right recommendations.
  Rng rng(7);
  TriadicStreamOptions gen;
  gen.num_nodes = 5000;
  gen.out_per_node = 12;
  gen.p_triadic = 0.6;
  std::vector<Edge> follows = TriadicClosureStream(gen, &rng);

  MonteCarloOptions options;
  options.walks_per_node = 10;
  options.epsilon = 0.2;

  // 4 node shards, one worker thread each; results are identical for
  // any shard/thread configuration with the same shard count.
  ShardedEngine<IncrementalSalsa> engine(gen.num_nodes, options,
                                         ShardedOptions{4, 0});
  QueryService<IncrementalSalsa> service(&engine);

  // Ingest the follow stream in windows (each publishes a snapshot).
  std::vector<EdgeEvent> window;
  const std::size_t kWindow = 2048;
  for (std::size_t lo = 0; lo < follows.size(); lo += kWindow) {
    const std::size_t hi = std::min(follows.size(), lo + kWindow);
    window.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      window.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, follows[i]});
    }
    if (!service.Ingest(window).ok()) return 1;
  }
  std::printf("ingested %zu follows through %zu shards "
              "(%llu windows published)\n",
              follows.size(), engine.num_shards(),
              static_cast<unsigned long long>(service.published_epoch()));

  // Global authorities from the snapshot layer (lock-free reads).
  std::printf("\nglobal top authorities (snapshot TopK): ");
  for (NodeId v : service.TopK(5)) {
    std::printf("%u (%.5f)  ", v, service.Score(v));
  }
  std::printf("\n");

  CsrGraph snapshot = CsrGraph::FromDiGraph(engine.graph());

  for (NodeId user : {NodeId{2500}, NodeId{4000}}) {
    std::printf("\n=== recommendations for user %u (follows %zu) ===\n",
                user, engine.graph().OutDegree(user));
    std::vector<ScoredNode> recs;
    PersonalizedWalkResult walk;
    Status s = service.PersonalizedTopK(user, 5, 30000,
                                        /*exclude_friends=*/true,
                                        /*rng_seed=*/user, &recs, &walk);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }

    // Baselines for comparison (computed offline on a snapshot).
    auto hits = PersonalizedHits(snapshot, user, HitsOptions{});
    auto cosine = CosineSimilarityScores(snapshot, user);

    TablePrinter table({"rank", "SALSA (walk)", "auth score", "HITS rank?",
                        "COSINE rank?"});
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const NodeId v = recs[i].node;
      // Where do the baselines put this node?
      auto rank_of = [v](const std::vector<double>& scores) {
        std::size_t better = 0;
        for (double x : scores) {
          if (x > scores[v]) ++better;
        }
        return better + 1;
      };
      table.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(i + 1)),
                    "user " + std::to_string(v),
                    TablePrinter::Fmt(recs[i].score, 5),
                    TablePrinter::Fmt(
                        static_cast<uint64_t>(rank_of(hits.authority))),
                    TablePrinter::Fmt(
                        static_cast<uint64_t>(rank_of(cosine.authority)))});
    }
    table.Print();
    std::printf("walk: %llu steps, %llu fetches, %llu stored segments "
                "consumed (stitched across %zu shards)\n",
                static_cast<unsigned long long>(walk.length),
                static_cast<unsigned long long>(walk.fetches),
                static_cast<unsigned long long>(walk.segments_used),
                engine.num_shards());
  }
  return 0;
}
