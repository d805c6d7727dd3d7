// The checkpoint loaders against bodies no writer produced
// (engine/sharded_engine.h Recover, graph/digraph.h and
// store/walk_store.h LoadFrom). A body here is CRC-valid — it is
// re-framed with WriteFramedFile after the edit — and sits beside a WAL
// whose manifest matches it, so nothing but the loaders' own checks
// stands between a bad row and the repairs that replay the WAL. Every
// edit must make Recover return OK (the edit hit a free field: an RNG
// state, a counter, a seed) or Corruption; it must never crash, and the
// targeted edits — an id past the graph, an unpaired twin, an index
// entry past its segment, on the wrong side or registered twice, an
// epsilon of 0, geometry the body cannot hold, parameters that disagree
// with the manifest — must be Corruption.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/generators.h"
#include "fastppr/store/arena_io.h"
#include "fastppr/store/checkpoint.h"
#include "fastppr/store/wal.h"
#include "fastppr/util/file_io.h"
#include "fastppr/util/shard.h"

namespace fastppr {
namespace {

constexpr std::size_t kNodes = 40;
constexpr uint32_t kShards = 2;
constexpr std::size_t kWindowWidth = 16;
constexpr std::size_t kTailWindows = 3;

/// Byte offsets in a version-4 body: the manifest's fields, then the
/// window counter, the graph's rows and each shard's store and engine.
constexpr std::size_t kManifestNodes = 0;
constexpr std::size_t kManifestWalks = 8;
constexpr std::size_t kManifestEpsilon = 16;
constexpr std::size_t kManifestShards = 34;
constexpr std::size_t kWindowCounter = 46;
constexpr std::size_t kGraphDegrees = 62;
/// A store's scalars, from its first byte.
constexpr std::size_t kStoreWalks = 0;
constexpr std::size_t kStoreEpsilon = 8;
constexpr std::size_t kStorePolicy = 16;
constexpr std::size_t kStoreShardIndex = 49;
constexpr std::size_t kStoreShardCount = 53;
constexpr std::size_t kStoreScalarBytes = 57;
constexpr std::size_t kEngineTailBytes = 112;

template <typename T>
T Get(const std::vector<uint8_t>& body, std::size_t at) {
  T v;
  std::memcpy(&v, body.data() + at, sizeof(T));
  return v;
}

template <typename T>
void Put(std::vector<uint8_t>* body, std::size_t at, T v) {
  std::memcpy(body->data() + at, &v, sizeof(T));
}

/// Where the rows of one body are; `ok` is false when the body is not
/// in this layout.
struct BodyMap {
  bool ok = false;
  std::size_t edges = 0;
  std::size_t ids = 0;    ///< first out-row neighbour id
  std::size_t twins = 0;  ///< first out-slot twin
  struct Segment {
    std::size_t at = 0;  ///< its length field
    uint32_t len = 0;
  };
  struct Entry {
    std::size_t at = 0;  ///< its (segment, position) word
    uint32_t pool = 0;   ///< steps per side, then dangling per side
    NodeId node = 0;
  };
  struct Shard {
    std::size_t scalars = 0;
    std::vector<Segment> segments;
    std::vector<Entry> entries;
  };
  std::vector<Shard> shards;
};

BodyMap MapBody(const std::vector<uint8_t>& body, uint32_t sides) {
  BodyMap map;
  const auto n = Get<uint64_t>(body, kManifestNodes);
  const auto spn = sides * Get<uint64_t>(body, kManifestWalks);
  const auto shards = Get<uint32_t>(body, kManifestShards);
  if (n != kNodes || shards != kShards) return map;
  for (std::size_t v = 0; v < n; ++v) {
    map.edges += Get<uint32_t>(body, kGraphDegrees + 4 * v);
  }
  map.ids = kGraphDegrees + 4 * n;
  map.twins = map.ids + 4 * map.edges;
  std::size_t at = map.twins + 4 * map.edges + sizeof(uint64_t);
  for (uint32_t s = 0; s < shards; ++s) {
    BodyMap::Shard shard;
    shard.scalars = at;
    at += kStoreScalarBytes;
    for (NodeId u = 0; u < n; ++u) {
      if (ShardOfNode(u, shards) != s) continue;
      for (std::size_t k = 0; k < spn; ++k) {
        if (at + 4 > body.size()) return map;
        const auto len = Get<uint32_t>(body, at);
        shard.segments.push_back({at, len});
        at += 5 + 4 * std::size_t{len};
      }
    }
    for (uint32_t pool = 0; pool < 2 * sides; ++pool) {
      for (NodeId v = 0; v < n; ++v) {
        if (at + 4 > body.size()) return map;
        const auto size = Get<uint32_t>(body, at);
        at += 4;
        for (uint32_t j = 0; j < size; ++j, at += 8) {
          shard.entries.push_back({at, pool, v});
        }
      }
    }
    at += kEngineTailBytes;
    map.shards.push_back(std::move(shard));
  }
  map.ok = at == body.size();
  return map;
}

/// Removes every directory FreshDir made once all tests have run.
class FreshDirCleanup : public testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;  // a leftover directory must not fail the run
    for (const std::string& dir : dirs) std::filesystem::remove_all(dir, ec);
  }
  std::vector<std::string> dirs;
};
FreshDirCleanup* const fresh_dirs = static_cast<FreshDirCleanup*>(
    testing::AddGlobalTestEnvironment(new FreshDirCleanup));

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fastppr_load_" + name +
                          "_" + std::to_string(::getpid());
  fresh_dirs->dirs.push_back(dir);
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  return dir;
}

/// A churned engine's checkpoint body, and the windows its WAL held
/// after it.
struct Written {
  std::vector<uint8_t> body;
  uint64_t next_window = 0;
  std::vector<std::vector<EdgeEvent>> tail;
};

template <typename EngineT>
Written WriteChurnedEngine(const std::string& dir) {
  Rng rng(77);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = kNodes;
  gen.out_per_node = 3;
  std::vector<Edge> edges = PreferentialAttachment(gen, &rng);
  rng.Shuffle(&edges);
  std::vector<std::vector<EdgeEvent>> windows;
  std::vector<Edge> live;
  std::vector<EdgeEvent> window;
  for (const Edge& e : edges) {
    window.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
    live.push_back(e);
    if (rng.Bernoulli(0.3)) {
      const std::size_t at = rng.UniformIndex(live.size());
      window.push_back(EdgeEvent{EdgeEvent::Kind::kDelete, live[at]});
      live[at] = live.back();
      live.pop_back();
    }
    if (window.size() >= kWindowWidth) {
      windows.push_back(std::move(window));
      window.clear();
    }
  }

  MonteCarloOptions mc;
  mc.walks_per_node = 2;
  mc.epsilon = 0.25;
  mc.seed = 5;
  ShardedEngine<EngineT> engine(kNodes, mc, ShardedOptions{kShards, 1});
  DurabilityOptions dopts;
  dopts.directory = dir;
  dopts.checkpoint_interval_windows = 0;
  EXPECT_TRUE(engine.EnableDurability(dopts).ok());
  EXPECT_GT(windows.size(), kTailWindows);
  const std::size_t head = windows.size() - kTailWindows;
  for (std::size_t w = 0; w < head; ++w) {
    EXPECT_TRUE(engine.ApplyEvents(windows[w]).ok());
  }
  EXPECT_TRUE(engine.Checkpoint().ok());
  Written out;
  out.next_window = engine.windows_applied();
  out.tail.assign(windows.begin() + head, windows.end());
  EXPECT_TRUE(ReadFramedFile(dir + "/" + kCheckpointFileName,
                             kCheckpointMagic, &out.body)
                  .ok());
  return out;
}

/// Frames `body` as the checkpoint, writes a WAL whose manifest is the
/// body's own and which holds the written tail, and recovers.
template <typename EngineT>
Status RecoverFrom(const std::string& dir, const Written& written,
                   const std::vector<uint8_t>& body) {
  EXPECT_TRUE(WriteFramedFile(dir + "/" + kCheckpointFileName,
                              kCheckpointMagic, body)
                  .ok());
  DurableManifest manifest;
  ArenaReader r(body);
  EXPECT_TRUE(manifest.LoadFrom(&r));
  WalWriter wal;
  EXPECT_TRUE(
      WalWriter::Create(dir + "/" + kWalFileName, manifest, &wal).ok());
  for (std::size_t w = 0; w < written.tail.size(); ++w) {
    EXPECT_TRUE(wal.AppendBatch(written.next_window + w, written.tail[w]).ok());
  }
  EXPECT_TRUE(wal.Sync().ok());
  EXPECT_TRUE(wal.Close().ok());
  std::unique_ptr<ShardedEngine<EngineT>> out;
  return ShardedEngine<EngineT>::Recover(dir, 1, &out);
}

using Edit = std::function<void(std::vector<uint8_t>*, const BodyMap&)>;

template <typename EngineT>
void ExpectLoadersHold(const std::string& tag,
                       const std::vector<std::pair<std::string, Edit>>& edits) {
  constexpr uint32_t kSides = EngineT::WalkSteps::kSides;
  const std::string dir = FreshDir(tag);
  const Written written = WriteChurnedEngine<EngineT>(dir);

  // The unedited body recovers.
  {
    const Status s = RecoverFrom<EngineT>(dir, written, written.body);
    ASSERT_TRUE(s.ok()) << tag << ": " << s.ToString();
  }

  // Blind edits at many offsets.
  int accepted = 0, rejected = 0;
  const std::size_t stride = written.body.size() / 700 + 1;
  for (std::size_t at = 0; at < written.body.size(); at += stride) {
    for (const uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::vector<uint8_t> body = written.body;
      body[at] ^= flip;
      const Status s = RecoverFrom<EngineT>(dir, written, body);
      ASSERT_TRUE(s.ok() || s.IsCorruption())
          << tag << ": byte " << at << " ^ " << int{flip} << ": "
          << s.ToString();
      ++(s.ok() ? accepted : rejected);
    }
  }
  EXPECT_GT(rejected, accepted) << tag;

  const BodyMap map = MapBody(written.body, kSides);
  ASSERT_TRUE(map.ok) << tag << ": the body is not in the layout mapped here";
  for (const auto& [name, edit] : edits) {
    std::vector<uint8_t> body = written.body;
    edit(&body, map);
    ASSERT_NE(body, written.body) << tag << ": " << name << " edited nothing";
    const Status s = RecoverFrom<EngineT>(dir, written, body);
    EXPECT_TRUE(s.IsCorruption()) << tag << ": " << name << ": "
                                  << s.ToString();
  }
}

/// The first entry of `pool` on node `node`, or nullptr.
const BodyMap::Entry* FindEntry(const BodyMap::Shard& shard, uint32_t pool,
                                NodeId node) {
  for (const BodyMap::Entry& e : shard.entries) {
    if (e.pool == pool && e.node == node) return &e;
  }
  return nullptr;
}

/// The edits every estimator must refuse.
std::vector<std::pair<std::string, Edit>> CommonEdits() {
  std::vector<std::pair<std::string, Edit>> edits;
  edits.emplace_back("graph id past n", [](std::vector<uint8_t>* b,
                                           const BodyMap& m) {
    Put<uint32_t>(b, m.ids, static_cast<uint32_t>(kNodes));
  });
  edits.emplace_back("twin past its in-row", [](std::vector<uint8_t>* b,
                                                const BodyMap& m) {
    Put<uint32_t>(b, m.twins, uint32_t{1} << 20);
  });
  edits.emplace_back("two out-slots claim one in-slot",
                     [](std::vector<uint8_t>* b, const BodyMap& m) {
    // Two out-slots into one target hold a permutation of its in-row.
    for (std::size_t i = 0; i < m.edges; ++i) {
      for (std::size_t j = i + 1; j < m.edges; ++j) {
        if (Get<uint32_t>(*b, m.ids + 4 * i) ==
            Get<uint32_t>(*b, m.ids + 4 * j)) {
          Put<uint32_t>(b, m.twins + 4 * j,
                        Get<uint32_t>(*b, m.twins + 4 * i));
          return;
        }
      }
    }
  });
  edits.emplace_back("walk node past n", [](std::vector<uint8_t>* b,
                                            const BodyMap& m) {
    for (const BodyMap::Segment& seg : m.shards[0].segments) {
      if (seg.len >= 2) {
        Put<uint32_t>(b, seg.at + 5 + 4, static_cast<uint32_t>(kNodes));
        return;
      }
    }
  });
  edits.emplace_back("segment away from its source",
                     [](std::vector<uint8_t>* b, const BodyMap& m) {
    const std::size_t at = m.shards[1].segments[0].at + 5;
    Put<uint32_t>(b, at, Get<uint32_t>(*b, at) ^ 1);
  });
  edits.emplace_back("empty segment", [](std::vector<uint8_t>* b,
                                         const BodyMap& m) {
    // An owned segment always holds at least its source.
    Put<uint32_t>(b, m.shards[0].segments[0].at, 0);
  });
  edits.emplace_back("unknown end reason", [](std::vector<uint8_t>* b,
                                              const BodyMap& m) {
    Put<uint8_t>(b, m.shards[0].segments[0].at + 4, 7);
  });
  edits.emplace_back("index entry past its segment",
                     [](std::vector<uint8_t>* b, const BodyMap& m) {
    const BodyMap::Entry& e = m.shards[0].entries[0];
    const auto word = Get<uint64_t>(*b, e.at);
    Put<uint64_t>(b, e.at, slab::WithLo(word, slab::Lo(word) + 100));
  });
  edits.emplace_back("index entry registered twice",
                     [](std::vector<uint8_t>* b, const BodyMap& m) {
    const auto& entries = m.shards[0].entries;
    for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
      if (entries[i].pool == entries[i + 1].pool &&
          entries[i].node == entries[i + 1].node) {
        Put<uint64_t>(b, entries[i + 1].at, Get<uint64_t>(*b, entries[i].at));
        return;
      }
    }
  });
  edits.emplace_back("index entry on another node",
                     [](std::vector<uint8_t>* b, const BodyMap& m) {
    // Swap two step entries of different nodes: no duplicate, same
    // counts, each on a row its position does not sit at.
    const auto& entries = m.shards[0].entries;
    for (std::size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].pool == 0 && entries[i].node != entries[0].node) {
        const auto a = Get<uint64_t>(*b, entries[0].at);
        Put<uint64_t>(b, entries[0].at, Get<uint64_t>(*b, entries[i].at));
        Put<uint64_t>(b, entries[i].at, a);
        return;
      }
    }
  });
  edits.emplace_back("epsilon 0", [](std::vector<uint8_t>* b,
                                     const BodyMap& m) {
    Put<double>(b, kManifestEpsilon, 0.0);
    for (const BodyMap::Shard& shard : m.shards) {
      Put<double>(b, shard.scalars + kStoreEpsilon, 0.0);
    }
  });
  edits.emplace_back("R 0", [](std::vector<uint8_t>* b, const BodyMap& m) {
    Put<uint64_t>(b, kManifestWalks, 0);
    for (const BodyMap::Shard& shard : m.shards) {
      Put<uint64_t>(b, shard.scalars + kStoreWalks, 0);
    }
  });
  edits.emplace_back("store R disagrees", [](std::vector<uint8_t>* b,
                                             const BodyMap& m) {
    Put<uint64_t>(b, m.shards[1].scalars + kStoreWalks, 3);
  });
  edits.emplace_back("store epsilon disagrees", [](std::vector<uint8_t>* b,
                                                   const BodyMap& m) {
    Put<double>(b, m.shards[0].scalars + kStoreEpsilon, 0.5);
  });
  edits.emplace_back("store policy disagrees", [](std::vector<uint8_t>* b,
                                                  const BodyMap& m) {
    Put<uint8_t>(b, m.shards[0].scalars + kStorePolicy, 1);
  });
  edits.emplace_back("shards swapped", [](std::vector<uint8_t>* b,
                                          const BodyMap& m) {
    Put<uint32_t>(b, m.shards[0].scalars + kStoreShardIndex, 1);
    Put<uint32_t>(b, m.shards[1].scalars + kStoreShardIndex, 0);
  });
  edits.emplace_back("store shard count disagrees",
                     [](std::vector<uint8_t>* b, const BodyMap& m) {
    Put<uint32_t>(b, m.shards[1].scalars + kStoreShardCount, 3);
  });
  edits.emplace_back("window counter disagrees",
                     [](std::vector<uint8_t>* b, const BodyMap&) {
    Put<uint64_t>(b, kWindowCounter, Get<uint64_t>(*b, kWindowCounter) - 1);
  });
  // Geometry the body cannot hold is refused before anything is
  // allocated from it (each would ask for gigabytes otherwise).
  edits.emplace_back("n of 2^40", [](std::vector<uint8_t>* b,
                                     const BodyMap&) {
    Put<uint64_t>(b, kManifestNodes, uint64_t{1} << 40);
  });
  edits.emplace_back("R of 2^40", [](std::vector<uint8_t>* b,
                                     const BodyMap& m) {
    Put<uint64_t>(b, kManifestWalks, uint64_t{1} << 40);
    for (const BodyMap::Shard& shard : m.shards) {
      Put<uint64_t>(b, shard.scalars + kStoreWalks, uint64_t{1} << 40);
    }
  });
  edits.emplace_back("R of 2^24", [](std::vector<uint8_t>* b,
                                     const BodyMap& m) {
    Put<uint64_t>(b, kManifestWalks, uint64_t{1} << 24);
    for (const BodyMap::Shard& shard : m.shards) {
      Put<uint64_t>(b, shard.scalars + kStoreWalks, uint64_t{1} << 24);
    }
  });
  edits.emplace_back("S of 2^31", [](std::vector<uint8_t>* b,
                                     const BodyMap&) {
    Put<uint32_t>(b, kManifestShards, uint32_t{1} << 31);
  });
  return edits;
}

TEST(CheckpointLoadTest, PageRankLoadersRejectWhatNoWriterProduced) {
  ExpectLoadersHold<IncrementalPageRank>("pr", CommonEdits());
}

TEST(CheckpointLoadTest, SalsaLoadersRejectWhatNoWriterProduced) {
  auto edits = CommonEdits();
  // A forward step's entry in the backward row of the same node, and
  // the other way round: same node, same counts, wrong side.
  edits.emplace_back("index entries on the wrong side",
                     [](std::vector<uint8_t>* b, const BodyMap& m) {
    const BodyMap::Shard& shard = m.shards[0];
    for (const BodyMap::Entry& e : shard.entries) {
      if (e.pool != 0) continue;
      if (const BodyMap::Entry* other = FindEntry(shard, 1, e.node)) {
        const auto a = Get<uint64_t>(*b, e.at);
        Put<uint64_t>(b, e.at, Get<uint64_t>(*b, other->at));
        Put<uint64_t>(b, other->at, a);
        return;
      }
    }
  });
  ExpectLoadersHold<IncrementalSalsa>("salsa", edits);
}

}  // namespace
}  // namespace fastppr
