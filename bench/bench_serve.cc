// E20: serving-layer workload replay. Compiles the fig5 entity KG (seed
// 42) into an immutable KgSnapshot, then (a) races snapshot point lookups
// against the naive graph::query scan path (speedup printed, not gated:
// E25's compressed postings traded the old 10x for 3x less memory), and
// (b) replays a seeded Zipf-distributed 20k-query workload — uncached,
// cold cache, warm cache, and batch-parallel at hardware threads. The
// cache and the thread count may change how fast an answer arrives, never
// the answer: any cached-vs-uncached or parallel-vs-serial divergence
// exits non-zero. Emits BENCH_serve.json alongside the table report.

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/exec_policy.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "obs/bench_sink.h"
#include "graph/knowledge_graph.h"
#include "graph/query.h"
#include "serve/query_engine.h"
#include "serve/serve_stats.h"
#include "serve/snapshot.h"
#include "synth/entity_universe.h"

namespace {

using namespace kg;  // NOLINT

constexpr size_t kWorkloadSize = 20000;
constexpr size_t kCacheCapacity = 4096;
constexpr double kZipfExponent = 1.05;

// The fig5 universe plus explicit class membership ("type" triples), so
// attribute-by-type queries have classes to scan.
graph::KnowledgeGraph BuildFig5Kg(synth::EntityUniverse* universe) {
  synth::UniverseOptions uopt;
  uopt.num_people = 800;
  uopt.num_movies = 1200;
  uopt.num_songs = 100;
  Rng rng(42);
  *universe = synth::EntityUniverse::Generate(uopt, rng);
  graph::KnowledgeGraph kg = universe->ToKnowledgeGraph();
  const graph::Provenance prov{"ground_truth", 1.0, 0};
  using graph::NodeKind;
  for (const auto& p : universe->people()) {
    kg.AddTriple(synth::EntityUniverse::PersonNodeName(p.id), "type",
                 "Person", NodeKind::kEntity, NodeKind::kClass, prov);
  }
  for (const auto& m : universe->movies()) {
    kg.AddTriple(synth::EntityUniverse::MovieNodeName(m.id), "type",
                 "Movie", NodeKind::kEntity, NodeKind::kClass, prov);
  }
  for (const auto& s : universe->songs()) {
    kg.AddTriple(synth::EntityUniverse::SongNodeName(s.id), "type", "Song",
                 NodeKind::kEntity, NodeKind::kClass, prov);
  }
  return kg;
}

// Per-domain attribute predicates (as emitted by ToKnowledgeGraph).
const std::vector<std::vector<std::string>>& DomainPredicates() {
  static const std::vector<std::vector<std::string>> kPreds = {
      {"name", "birth_year", "nationality", "acted_in"},
      {"title", "release_year", "genre", "directed_by"},
      {"title", "performed_by", "song_year", "song_genre"},
  };
  return kPreds;
}

// A Zipf-popularity query mix over the universe: 40% point lookups, 25%
// neighborhoods, 20% typed attribute scans, 15% top-k related shelves.
std::vector<serve::Query> MakeWorkload(const synth::EntityUniverse& u,
                                       size_t n, Rng& rng) {
  const ZipfDistribution person_zipf(u.people().size(), kZipfExponent);
  const ZipfDistribution movie_zipf(u.movies().size(), kZipfExponent);
  const ZipfDistribution song_zipf(u.songs().size(), kZipfExponent);
  const std::vector<double> domain_weights = {
      static_cast<double>(u.people().size()),
      static_cast<double>(u.movies().size()),
      static_cast<double>(u.songs().size())};
  const std::vector<std::string> types = {"Person", "Movie", "Song"};
  const auto& preds = DomainPredicates();
  auto sample_node = [&](size_t domain) -> std::string {
    switch (domain) {
      case 0:
        return synth::EntityUniverse::PersonNodeName(
            u.people()[person_zipf.Sample(rng)].id);
      case 1:
        return synth::EntityUniverse::MovieNodeName(
            u.movies()[movie_zipf.Sample(rng)].id);
      default:
        return synth::EntityUniverse::SongNodeName(
            u.songs()[song_zipf.Sample(rng)].id);
    }
  };

  std::vector<serve::Query> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double r = rng.UniformDouble();
    const size_t domain = rng.Weighted(domain_weights);
    const std::string pred =
        preds[domain][rng.UniformIndex(preds[domain].size())];
    if (r < 0.40) {
      out.push_back(serve::Query::PointLookup(sample_node(domain), pred));
    } else if (r < 0.65) {
      out.push_back(serve::Query::Neighborhood(sample_node(domain)));
    } else if (r < 0.85) {
      out.push_back(serve::Query::AttributeByType(types[domain], pred));
    } else {
      out.push_back(serve::Query::TopKRelated(
          sample_node(domain), 5 * (1 + rng.UniformIndex(4))));
    }
  }
  return out;
}

// The pre-snapshot serving path: the same point lookup answered by the
// conjunctive graph::query engine over the mutable KG, rendered to the
// identical row shape so the two paths are byte-comparable.
serve::QueryResult NaivePointLookup(const graph::QueryEngine& engine,
                                    const graph::KnowledgeGraph& kg,
                                    const serve::Query& q) {
  using graph::Term;
  using graph::TriplePattern;
  const std::vector<TriplePattern> patterns{
      {Term::Const(q.node), Term::Const(q.predicate), Term::Var("o")}};
  serve::QueryResult rows;
  for (const auto& binding : engine.Evaluate(patterns)) {
    const graph::NodeId o = binding.at("o");
    rows.push_back(serve::RenderNodeName(kg.NodeName(o), kg.GetNodeKind(o)));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// A point-lookup request as the serving layer receives it: node address
// plus predicate (views into the workload's Query structs).
struct PointRequest {
  std::string_view node;
  graph::NodeKind kind = graph::NodeKind::kEntity;
  std::string_view predicate;
};

// The timed serving-layer request path: two allocation-free hash probes
// plus a binary search into the SPO slice. Returns the answer count.
size_t SnapshotPointLookupCount(const serve::KgSnapshot& snap,
                                const PointRequest& q) {
  const auto s = snap.FindNode(q.node, q.kind);
  if (!s.ok()) return 0;
  const auto p = snap.FindPredicate(q.predicate);
  if (!p.ok()) return 0;
  return snap.CountObjects(*s, *p);
}

struct Replay {
  std::string label;
  double seconds = 0.0;
  size_t divergences = 0;
  serve::ServeStats stats;
};

// Replays `workload` serially through `engine`, recording per-query wall
// time, and counts rows that differ from `reference`.
void ReplaySerial(const serve::QueryEngine& engine,
                  const std::vector<serve::Query>& workload,
                  const std::vector<serve::QueryResult>& reference,
                  Replay* out) {
  WallTimer clock;
  for (size_t i = 0; i < workload.size(); ++i) {
    WallTimer per_query;
    const serve::QueryResult rows = engine.Execute(workload[i]);
    out->stats.Record(workload[i].kind, per_query.ElapsedSeconds());
    if (!reference.empty() && rows != reference[i]) ++out->divergences;
  }
  out->seconds = clock.ElapsedSeconds();
}

std::string JsonNumber(double v) { return FormatDouble(v, 3); }

}  // namespace

int main() {
  std::cout << "E20: read-optimized KG serving — snapshot index, result "
               "cache, batch-parallel replay (seed 42)\n";

  synth::EntityUniverse universe;
  const graph::KnowledgeGraph kg = BuildFig5Kg(&universe);
  WallTimer compile_clock;
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(kg);
  const double compile_seconds = compile_clock.ElapsedSeconds();
  PrintBanner(std::cout, "Snapshot compile");
  std::cout << "KG: " << kg.num_triples() << " live triples -> snapshot: "
            << snap.num_nodes() << " nodes, " << snap.num_predicates()
            << " predicates, " << snap.num_triples() << " triples in "
            << FormatDouble(compile_seconds * 1e3, 1)
            << " ms, fingerprint 0x" << std::hex << snap.Fingerprint()
            << std::dec << "\n";

  Rng workload_rng(271828);
  const std::vector<serve::Query> workload =
      MakeWorkload(universe, kWorkloadSize, workload_rng);

  // ---- Point-lookup race: snapshot index vs graph::query ---------------
  // Four rungs of the same Zipf point-lookup stream, count-only so both
  // sides do their own work and nothing else:
  //   1. graph::query request  — Query(text): parse + evaluate, the
  //      pre-serve layer's public request path;
  //   2. graph::query prepared — Evaluate() on a pre-built pattern (parse
  //      amortized away, bindings still materialized);
  //   3. serve lookup          — by-name through the snapshot: two hash
  //      probes + a CSR binary search (the serving layer's request path;
  //      its request form is the typed Query struct, not a string);
  //   4. CSR read              — ObjectEdges() with ids pre-resolved, the
  //      raw index read that interned ids make possible.
  // Each rung is timed per repetition and reported best-of to damp
  // scheduler noise. The headline compares the two request paths (1 vs 3).
  std::vector<serve::Query> points;
  for (const auto& q : workload) {
    if (q.kind == serve::QueryKind::kPointLookup) points.push_back(q);
  }
  const graph::QueryEngine naive(kg);
  const serve::QueryEngine snapshot_engine(snap);
  size_t lookup_mismatches = 0;
  for (const auto& q : points) {
    if (NaivePointLookup(naive, kg, q) !=
        snapshot_engine.ExecuteUncached(q)) {
      ++lookup_mismatches;
    }
  }

  std::vector<std::string> texts;
  std::vector<std::vector<graph::TriplePattern>> patterns;
  std::vector<PointRequest> requests;
  std::vector<std::pair<serve::NodeId, serve::PredicateId>> resolved;
  texts.reserve(points.size());
  patterns.reserve(points.size());
  requests.reserve(points.size());
  resolved.reserve(points.size());
  for (const auto& q : points) {
    texts.push_back("'" + q.node + "' " + q.predicate + " ?o");
    patterns.push_back({graph::TriplePattern{graph::Term::Const(q.node),
                                             graph::Term::Const(q.predicate),
                                             graph::Term::Var("o")}});
    requests.push_back({q.node, q.node_kind, q.predicate});
    resolved.emplace_back(*snap.FindNode(q.node, q.node_kind),
                          *snap.FindPredicate(q.predicate));
  }

  constexpr int kRaceReps = 5;
  constexpr size_t kNumRungs = 4;
  std::array<double, kNumRungs> best_seconds;
  best_seconds.fill(1e300);
  std::array<size_t, kNumRungs> rung_rows{};
  for (int rep = 0; rep < kRaceReps; ++rep) {
    {
      size_t rows = 0;
      WallTimer t;
      for (const auto& s : texts) rows += naive.Query(s)->size();
      best_seconds[0] = std::min(best_seconds[0], t.ElapsedSeconds());
      rung_rows[0] = rows;
    }
    {
      size_t rows = 0;
      WallTimer t;
      for (const auto& p : patterns) rows += naive.Evaluate(p).size();
      best_seconds[1] = std::min(best_seconds[1], t.ElapsedSeconds());
      rung_rows[1] = rows;
    }
    {
      size_t rows = 0;
      WallTimer t;
      for (const auto& q : requests) {
        rows += SnapshotPointLookupCount(snap, q);
      }
      best_seconds[2] = std::min(best_seconds[2], t.ElapsedSeconds());
      rung_rows[2] = rows;
    }
    {
      size_t rows = 0;
      WallTimer t;
      for (const auto& r : resolved) {
        rows += snap.CountObjects(r.first, r.second);
      }
      best_seconds[3] = std::min(best_seconds[3], t.ElapsedSeconds());
      rung_rows[3] = rows;
    }
  }
  for (size_t rung = 1; rung < kNumRungs; ++rung) {
    if (rung_rows[rung] != rung_rows[0]) ++lookup_mismatches;
  }
  const double speedup =
      best_seconds[2] > 0.0 ? best_seconds[0] / best_seconds[2] : 0.0;
  const double prepared_speedup =
      best_seconds[2] > 0.0 ? best_seconds[1] / best_seconds[2] : 0.0;

  PrintBanner(std::cout, "Point lookups: snapshot index vs graph::query");
  const std::array<std::string, kNumRungs> rung_names = {
      "graph::query request (parse+eval)",
      "graph::query prepared (eval only)",
      "serve lookup (by name)",
      "CSR read (ids resolved)",
  };
  TablePrinter race({"path", "lookups", "seconds", "qps", "ns/lookup"});
  const double race_n = static_cast<double>(points.size());
  for (size_t rung = 0; rung < kNumRungs; ++rung) {
    race.AddRow({rung_names[rung], std::to_string(points.size()),
                 FormatDouble(best_seconds[rung], 4),
                 FormatDouble(race_n / best_seconds[rung], 0),
                 FormatDouble(best_seconds[rung] / race_n * 1e9, 0)});
  }
  race.Print(std::cout);
  std::cout << "request-path speedup " << FormatDouble(speedup, 1)
            << "x; prepared-pattern speedup "
            << FormatDouble(prepared_speedup, 1) << "x; answers "
            << (lookup_mismatches == 0 ? "byte-identical" : "MISMATCH")
            << " across " << points.size() << " point lookups\n";

  // ---- Workload replays ------------------------------------------------
  // Reference: serial, no cache — the ground truth every other
  // configuration must reproduce byte-for-byte.
  Replay uncached;
  uncached.label = "uncached serial";
  std::vector<serve::QueryResult> reference;
  {
    reference.reserve(workload.size());
    WallTimer clock;
    for (const auto& q : workload) {
      WallTimer per_query;
      reference.push_back(snapshot_engine.Execute(q));
      uncached.stats.Record(q.kind, per_query.ElapsedSeconds());
    }
    uncached.seconds = clock.ElapsedSeconds();
  }

  serve::ServeOptions cache_options;
  cache_options.cache_capacity = kCacheCapacity;
  const serve::QueryEngine cached_engine(snap, cache_options);
  Replay cold;
  cold.label = "cold cache";
  ReplaySerial(cached_engine, workload, reference, &cold);
  cold.stats.SetCacheCounters(cached_engine.cache()->counters());
  cached_engine.cache()->ResetCounters();
  Replay warm;
  warm.label = "warm cache";
  ReplaySerial(cached_engine, workload, reference, &warm);
  warm.stats.SetCacheCounters(cached_engine.cache()->counters());

  const ExecPolicy hw = ExecPolicy::Hardware();
  serve::ServeOptions parallel_options;
  parallel_options.cache_capacity = kCacheCapacity;
  parallel_options.exec = hw;
  const serve::QueryEngine parallel_engine(snap, parallel_options);
  WallTimer parallel_clock;
  const std::vector<serve::QueryResult> parallel_rows =
      parallel_engine.BatchExecute(workload);
  const double parallel_seconds = parallel_clock.ElapsedSeconds();
  size_t parallel_divergences = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (parallel_rows[i] != reference[i]) ++parallel_divergences;
  }

  for (Replay* replay : {&uncached, &cold, &warm}) {
    PrintBanner(std::cout, "Replay: " + replay->label + " (" +
                               std::to_string(kWorkloadSize) +
                               " queries, serial)");
    replay->stats.Print(std::cout);
    std::cout << "wall " << FormatDouble(replay->seconds, 3) << "s, "
              << FormatDouble(kWorkloadSize / replay->seconds, 0)
              << " qps, divergences from reference: "
              << replay->divergences << "\n";
  }
  PrintBanner(std::cout, "Replay: batch-parallel (" +
                             std::to_string(hw.num_threads) + " threads, " +
                             "cold cache)");
  std::cout << "wall " << FormatDouble(parallel_seconds, 3) << "s, "
            << FormatDouble(kWorkloadSize / parallel_seconds, 0)
            << " qps, speedup over uncached serial "
            << FormatDouble(uncached.seconds / parallel_seconds, 2)
            << "x, divergences from reference: " << parallel_divergences
            << "\n";

  // ---- JSON report -----------------------------------------------------
  const size_t total_divergences = lookup_mismatches + cold.divergences +
                                   warm.divergences + parallel_divergences;
  {
    std::ostringstream json;
    json << "{\"workload\":"
         << kWorkloadSize << ",\"snapshot\":{\"nodes\":" << snap.num_nodes()
         << ",\"predicates\":" << snap.num_predicates()
         << ",\"triples\":" << snap.num_triples()
         << ",\"compile_seconds\":" << JsonNumber(compile_seconds) << "}"
         << ",\"point_lookup_race\":{\"request_ns\":"
         << JsonNumber(best_seconds[0] / race_n * 1e9)
         << ",\"prepared_ns\":" << JsonNumber(best_seconds[1] / race_n * 1e9)
         << ",\"serve_lookup_ns\":"
         << JsonNumber(best_seconds[2] / race_n * 1e9)
         << ",\"csr_read_ns\":" << JsonNumber(best_seconds[3] / race_n * 1e9)
         << ",\"request_speedup\":" << JsonNumber(speedup)
         << ",\"prepared_speedup\":" << JsonNumber(prepared_speedup)
         << ",\"mismatches\":" << lookup_mismatches << "}"
         << ",\"uncached\":" << uncached.stats.ToJson()
         << ",\"cold\":" << cold.stats.ToJson()
         << ",\"warm\":" << warm.stats.ToJson()
         << ",\"parallel\":{\"threads\":" << hw.num_threads
         << ",\"seconds\":" << JsonNumber(parallel_seconds)
         << ",\"qps\":" << JsonNumber(kWorkloadSize / parallel_seconds)
         << ",\"divergences\":" << parallel_divergences << "}"
         << ",\"divergences\":" << total_divergences << "}";
    const obs::JsonSink sink("serve", 42, hw.num_threads);
    KG_CHECK_OK(sink.WriteFile("BENCH_serve.json", json.str()));
  }

  PrintBanner(std::cout, "Serving verdict");
  std::cout << "cached==uncached: "
            << (cold.divergences + warm.divergences == 0 ? "yes" : "NO")
            << "; parallel==serial: "
            << (parallel_divergences == 0 ? "yes" : "NO")
            << "; snapshot==graph::query on point lookups: "
            << (lookup_mismatches == 0 ? "yes" : "NO")
            << "; point-lookup speedup " << FormatDouble(speedup, 1)
            << "x\n";
  // Divergence anywhere is a correctness bug in the serving layer (the
  // cache or the batch sharding changed an answer): fail the binary.
  return total_divergences == 0 ? 0 : 1;
}
