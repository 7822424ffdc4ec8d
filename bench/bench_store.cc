// E21: versioned-store serving under writes. Opens the fig5 entity KG
// (seed 42) in a VersionedKgStore and replays a seeded Zipf mixed
// read/write workload at 0%, 1%, and 10% write ratios, with background
// compaction kicked off mid-run on a ThreadPool. Read p50/p99 per ratio
// are compared against the immutable-snapshot path (same cache budget);
// the headline check is read p99 at 1% writes within 2x of immutable.
// Each replay runs with stage timing on, so the report attributes the
// tail by stage (result-cache probe per cached query class, WAL append and
// overlay merge on the write path) — the breakdown that shows *where*
// a p99-over-budget run actually spends its extra time.
// Correctness is enforced the hard way: at checkpoints the store's
// overlay answers are compared against a from-scratch snapshot rebuild of
// an oracle KG that applied the same mutations, and the final
// authoritative fingerprint must equal the oracle's. Any divergence exits
// non-zero. A last table (E28's loop) reports the cost of one commit at a
// fixed overlay size, with no cache and no WAL; it is a report, not a
// gate. Emits BENCH_store.json alongside the table report.

#include <algorithm>
#include <array>
#include <cstddef>
#include <filesystem>
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
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/bench_sink.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "graph/knowledge_graph.h"
#include "serve/query_engine.h"
#include "serve/serve_stats.h"
#include "serve/snapshot.h"
#include "store/versioned_store.h"
#include "store/wal.h"
#include "synth/entity_universe.h"

namespace {

using namespace kg;  // NOLINT

constexpr size_t kOps = 20000;
constexpr size_t kCacheCapacity = 4096;
constexpr double kZipfExponent = 1.05;
constexpr size_t kCheckpoints = 10;       // divergence probes per replay
constexpr size_t kProbesPerCheckpoint = 16;
constexpr double kP99Budget = 2.0;        // store p99 <= 2x immutable @1%

// The fig5 universe plus explicit class membership, exactly as
// bench_serve builds it, so the two reports measure the same knowledge.
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

const std::vector<std::vector<std::string>>& DomainPredicates() {
  static const std::vector<std::vector<std::string>> kPreds = {
      {"name", "birth_year", "nationality", "acted_in"},
      {"title", "release_year", "genre", "directed_by"},
      {"title", "performed_by", "song_year", "song_genre"},
  };
  return kPreds;
}

// The bench_serve query mix: 40% point lookups, 25% neighborhoods, 20%
// typed attribute scans, 15% top-k shelves, all Zipf-popular.
std::vector<serve::Query> MakeReadStream(const synth::EntityUniverse& u,
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

// One Zipf-popular write: mostly fresh facts about head entities (new
// "store_tag" text attributes and "knows" edges), sometimes a retraction
// of a live triple so the overlay's shadowing is on the hot path too.
store::Mutation MakeWrite(const synth::EntityUniverse& u,
                          const graph::KnowledgeGraph& oracle, Rng& rng,
                          size_t* value_counter) {
  using graph::NodeKind;
  const ZipfDistribution person_zipf(u.people().size(), kZipfExponent);
  auto person = [&] {
    return synth::EntityUniverse::PersonNodeName(
        u.people()[person_zipf.Sample(rng)].id);
  };
  graph::Provenance prov{"live_feed", 0.9, static_cast<int64_t>(*value_counter)};
  const double roll = rng.UniformDouble();
  if (roll < 0.25) {
    const std::vector<graph::TripleId> live = oracle.AllTriples();
    if (!live.empty()) {
      const graph::Triple& t =
          oracle.triple(live[rng.UniformIndex(live.size())]);
      return store::Mutation::Retract(
          oracle.NodeName(t.subject), oracle.PredicateName(t.predicate),
          oracle.NodeName(t.object), oracle.GetNodeKind(t.subject),
          oracle.GetNodeKind(t.object));
    }
  }
  if (roll < 0.6) {
    return store::Mutation::Upsert(person(), "knows", person(),
                                   NodeKind::kEntity, NodeKind::kEntity,
                                   std::move(prov));
  }
  return store::Mutation::Upsert(
      person(), "store_tag", "v:" + std::to_string((*value_counter)++),
      NodeKind::kEntity, NodeKind::kText, std::move(prov));
}

// The rebuild oracle's side of a mutation — mirrors the store's apply
// semantics (upsert dedups into provenance; retract of absent is a no-op).
void ApplyToKg(graph::KnowledgeGraph* kg, const store::Mutation& m) {
  if (m.op == store::MutationOp::kUpsert) {
    kg->AddTriple(m.subject, m.predicate, m.object, m.subject_kind,
                  m.object_kind, m.prov);
    return;
  }
  const auto s = kg->FindNode(m.subject, m.subject_kind);
  const auto p = kg->FindPredicate(m.predicate);
  const auto o = kg->FindNode(m.object, m.object_kind);
  if (!s.ok() || !p.ok() || !o.ok()) return;
  const graph::TripleId id = kg->FindTriple(*s, *p, *o);
  if (id != graph::kInvalidTriple) kg->RemoveTriple(id);
}

// ---- Fixed-overlay commit table (E28) ---------------------------------

constexpr std::array<size_t, 4> kOverlaySizes = {100, 400, 1000, 2000};
constexpr size_t kTimedCommits = 1000;
constexpr size_t kCommitSize = 8;

struct CommitRow {
  size_t target = 0;        // pool size the overlay is held at
  size_t delta_size = 0;    // the store's delta_size() after the loop
  size_t run_entries = 0;   // out-run entries of the last epoch
  double commit_p50_us = 0.0;
};

// Single-threaded 8-mutation commits on the fig5 people, with no cache and
// no WAL. The overlay is held at ~`target` entries by rewriting a fixed
// pool of the loop's own triples, each rewrite a random state: half are
// base triples (a retraction shadows one), half `knows` edges, a
// predicate the base lacks. The pool is committed once untimed, then
// kTimedCommits commits of random pool entries are timed.
CommitRow FixedOverlayCommits(const graph::KnowledgeGraph& base_kg,
                              const synth::EntityUniverse& u, size_t target,
                              uint64_t seed) {
  using graph::NodeKind;
  Rng rng(seed);
  const std::vector<graph::TripleId> live = base_kg.AllTriples();
  std::vector<store::Mutation> pool;
  for (size_t i = 0; i < target; ++i) {
    if (i % 2 == 0) {
      const graph::Triple& t = base_kg.triple(live[rng.UniformIndex(live.size())]);
      pool.push_back(store::Mutation::Retract(
          base_kg.NodeName(t.subject), base_kg.PredicateName(t.predicate),
          base_kg.NodeName(t.object), base_kg.GetNodeKind(t.subject),
          base_kg.GetNodeKind(t.object)));
    } else {
      const auto person = [&] {
        return synth::EntityUniverse::PersonNodeName(
            u.people()[rng.UniformIndex(u.people().size())].id);
      };
      pool.push_back(store::Mutation::Upsert(person(), "knows", person(),
                                             NodeKind::kEntity,
                                             NodeKind::kEntity,
                                             graph::Provenance{"probe", 1.0, 0}));
    }
  }
  const auto with_state = [&](store::Mutation m) {
    m.op = rng.Bernoulli(0.5) ? store::MutationOp::kUpsert
                              : store::MutationOp::kRetract;
    return m;
  };
  auto opened = store::VersionedKgStore::Open(base_kg);
  KG_CHECK_OK(opened.status());
  store::VersionedKgStore& store = **opened;
  for (size_t i = 0; i < pool.size(); i += kCommitSize) {
    const size_t end = std::min(pool.size(), i + kCommitSize);
    KG_CHECK_OK(store.ApplyBatch(
        std::vector<store::Mutation>(pool.begin() + i, pool.begin() + end)));
  }
  std::vector<double> commit_us;
  commit_us.reserve(kTimedCommits);
  for (size_t c = 0; c < kTimedCommits; ++c) {
    std::vector<store::Mutation> batch;
    for (size_t i = 0; i < kCommitSize; ++i) {
      batch.push_back(with_state(pool[rng.UniformIndex(pool.size())]));
    }
    WallTimer timer;
    KG_CHECK_OK(store.ApplyBatch(batch));
    commit_us.push_back(timer.ElapsedSeconds() * 1e6);
  }
  std::nth_element(commit_us.begin(), commit_us.begin() + commit_us.size() / 2,
                   commit_us.end());
  return CommitRow{target, store.delta_size(),
                   store.PinEpoch()->overlay.out.size(),
                   commit_us[commit_us.size() / 2]};
}

struct StageRow {
  std::string stage;
  std::string query_class;  // empty for classless write-path stages
  uint64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Every store stage histogram the replay could have filled: the
// per-class cache probe on the read path, WAL append and overlay merge
// on the write path. Zero-count histograms are skipped.
std::vector<StageRow> CollectStageRows(obs::MetricsRegistry& registry) {
  std::vector<StageRow> rows;
  auto add = [&rows](std::string_view stage, std::string_view query_class,
                     const obs::Histogram& h) {
    if (h.Count() == 0) return;
    rows.push_back({std::string(stage), std::string(query_class), h.Count(),
                    h.Quantile(0.50), h.Quantile(0.99)});
  };
  for (size_t k = 0; k < serve::kNumQueryKinds; ++k) {
    const char* cls = serve::QueryKindName(static_cast<serve::QueryKind>(k));
    add(obs::StageName(obs::Stage::kCacheProbe), cls,
        obs::StageHistogram(registry, obs::Stage::kCacheProbe, cls));
  }
  add(obs::StageName(obs::Stage::kWalAppend), "",
      obs::StageHistogram(registry, obs::Stage::kWalAppend));
  add(obs::StageName(obs::Stage::kOverlayMerge), "",
      obs::StageHistogram(registry, obs::Stage::kOverlayMerge));
  return rows;
}

struct RatioReport {
  double write_pct = 0.0;
  size_t reads = 0;
  size_t writes = 0;
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  double write_p50_us = 0.0;
  double write_p99_us = 0.0;
  double seconds = 0.0;
  size_t divergences = 0;
  size_t compactions = 0;
  size_t folded = 0;
  serve::ServeStats stats;
  std::vector<StageRow> stage_rows;
};

std::string JsonNumber(double v) { return FormatDouble(v, 3); }

std::string StageRowsJson(const std::vector<StageRow>& rows) {
  std::ostringstream json;
  json << "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const StageRow& row = rows[i];
    if (i > 0) json << ",";
    json << "{\"stage\":\"" << row.stage << "\"";
    if (!row.query_class.empty()) {
      json << ",\"class\":\"" << row.query_class << "\"";
    }
    json << ",\"count\":" << row.count
         << ",\"p50_us\":" << JsonNumber(row.p50_us)
         << ",\"p99_us\":" << JsonNumber(row.p99_us) << "}";
  }
  json << "]";
  return json.str();
}

}  // namespace

int main() {
  std::cout << "E21: versioned store under writes — Zipf mixed workload at "
               "0/1/10% write ratios, background compaction (seed 42)\n";

  synth::EntityUniverse universe;
  const graph::KnowledgeGraph base_kg = BuildFig5Kg(&universe);
  const serve::KgSnapshot base_snap = serve::KgSnapshot::Compile(base_kg);

  // Read stream shared by every configuration (same seed => the 1% run's
  // reads are a prefix-interleaving of the 0% run's).
  Rng read_rng(271828);
  const std::vector<serve::Query> reads =
      MakeReadStream(universe, kOps, read_rng);

  // ---- Immutable baseline ----------------------------------------------
  // The read-only serving path with the same cache budget: what the store
  // must stay within 2x of (p99) while also absorbing writes.
  serve::ServeOptions baseline_options;
  baseline_options.cache_capacity = kCacheCapacity;
  const serve::QueryEngine baseline_engine(base_snap, baseline_options);
  serve::ServeStats baseline_stats;
  double baseline_seconds = 0.0;
  {
    WallTimer clock;
    for (const auto& q : reads) {
      WallTimer per_query;
      (void)baseline_engine.Execute(q);
      baseline_stats.Record(q.kind, per_query.ElapsedSeconds());
    }
    baseline_seconds = clock.ElapsedSeconds();
  }
  const auto baseline_rows = baseline_stats.rows();
  const auto& baseline_all = baseline_rows.back();
  PrintBanner(std::cout, "Immutable baseline (read-only, cached)");
  baseline_stats.Print(std::cout);
  std::cout << "wall " << FormatDouble(baseline_seconds, 3) << "s\n";

  // ---- Mixed replays ----------------------------------------------------
  const std::array<double, 3> write_ratios = {0.0, 0.01, 0.10};
  std::array<RatioReport, 3> reports;  // ServeStats is not movable
  size_t total_divergences = 0;

  for (size_t ri = 0; ri < write_ratios.size(); ++ri) {
    const double ratio = write_ratios[ri];
    RatioReport& report = reports[ri];
    report.write_pct = ratio * 100.0;

    const std::string wal_path =
        "bench_store_" + std::to_string(static_cast<int>(ratio * 100)) +
        ".wal";
    std::filesystem::remove(wal_path);
    obs::MetricsRegistry registry;  // fresh per ratio: no cross-run merge
    store::StoreOptions options;
    options.wal_path = wal_path;
    options.cache_capacity = kCacheCapacity;
    options.registry = &registry;
    options.time_stages = true;
    auto opened = store::VersionedKgStore::Open(base_kg, options);
    if (!opened.ok()) {
      std::cerr << "store open failed: " << opened.status() << "\n";
      return 1;
    }
    auto& store = **opened;
    graph::KnowledgeGraph oracle = base_kg;

    Rng op_rng(1000 + static_cast<uint64_t>(ratio * 1000));
    ThreadPool pool(2);
    std::vector<double> write_samples;
    size_t value_counter = 0;
    size_t read_idx = 0;
    const size_t checkpoint_every = kOps / kCheckpoints;

    WallTimer clock;
    for (size_t i = 0; i < kOps; ++i) {
      if (ratio > 0.0 && op_rng.Bernoulli(ratio)) {
        const store::Mutation m =
            MakeWrite(universe, oracle, op_rng, &value_counter);
        WallTimer per_write;
        if (auto st = store.Apply(m); !st.ok()) {
          std::cerr << "apply failed: " << st << "\n";
          return 1;
        }
        write_samples.push_back(per_write.ElapsedSeconds());
        ApplyToKg(&oracle, m);
        ++report.writes;
      } else if (read_idx < reads.size()) {
        const serve::Query& q = reads[read_idx++];
        WallTimer per_query;
        (void)store.Execute(q);
        report.stats.Record(q.kind, per_query.ElapsedSeconds());
        ++report.reads;
      }
      // Mid-run fold on the pool: serving continues while it runs.
      if (i == kOps / 2 && store.delta_size() > 0) {
        if (store.CompactInBackground(pool)) ++report.compactions;
      }
      // Overlay-vs-rebuild probe: the store must answer exactly as a
      // from-scratch compile of the oracle, wherever the fold is.
      if ((i + 1) % checkpoint_every == 0) {
        const serve::KgSnapshot rebuilt = serve::KgSnapshot::Compile(oracle);
        const serve::QueryEngine rebuilt_engine(rebuilt);
        for (size_t probe = 0; probe < kProbesPerCheckpoint; ++probe) {
          const serve::Query& q = reads[op_rng.UniformIndex(reads.size())];
          if (store.Execute(q) != rebuilt_engine.ExecuteUncached(q)) {
            ++report.divergences;
          }
        }
      }
    }
    pool.WaitIdle();
    report.seconds = clock.ElapsedSeconds();

    // Settle the run: final fold plus fingerprint identity.
    const auto final_stats = store.Compact();
    if (final_stats.ran) {
      ++report.compactions;
      report.folded += final_stats.folded;
      if (final_stats.base_fingerprint !=
          serve::KgSnapshot::Compile(oracle).Fingerprint()) {
        ++report.divergences;
      }
    }
    if (store.AuthoritativeFingerprint() !=
        graph::TripleSetFingerprint(oracle)) {
      ++report.divergences;
    }

    const auto rows = report.stats.rows();
    const auto& all = rows.back();
    report.read_p50_us = all.p50_us;
    report.read_p99_us = all.p99_us;
    report.write_p50_us = serve::Percentile(write_samples, 0.50) * 1e6;
    report.write_p99_us = serve::Percentile(write_samples, 0.99) * 1e6;
    total_divergences += report.divergences;
    std::filesystem::remove(wal_path);

    PrintBanner(std::cout,
                "Replay: " + FormatDouble(report.write_pct, 0) +
                    "% writes (" + std::to_string(report.reads) +
                    " reads, " + std::to_string(report.writes) + " writes)");
    report.stats.Print(std::cout);
    report.stage_rows = CollectStageRows(registry);
    TablePrinter stage_table({"stage", "class", "count", "p50 us", "p99 us"});
    for (const StageRow& row : report.stage_rows) {
      stage_table.AddRow({row.stage, row.query_class.empty() ? "-"
                                                             : row.query_class,
                          std::to_string(row.count),
                          FormatDouble(row.p50_us, 1),
                          FormatDouble(row.p99_us, 1)});
    }
    stage_table.Print(std::cout);
    const auto cache_counters = store.cache()->counters();
    std::cout << "wall " << FormatDouble(report.seconds, 3)
              << "s; write p50/p99 "
              << FormatDouble(report.write_p50_us, 1) << "/"
              << FormatDouble(report.write_p99_us, 1)
              << " us; compactions " << report.compactions
              << "; divergences " << report.divergences
              << "; cache hit rate "
              << FormatDouble(cache_counters.HitRate() * 100.0, 1)
              << "% (" << cache_counters.hits << "/"
              << (cache_counters.hits + cache_counters.misses) << ")\n";
  }

  // ---- Verdict ----------------------------------------------------------
  const double p99_ratio =
      baseline_all.p99_us > 0.0 ? reports[1].read_p99_us / baseline_all.p99_us
                                : 0.0;
  PrintBanner(std::cout, "Store verdict");
  TablePrinter verdict(
      {"config", "reads", "writes", "read p50 us", "read p99 us"});
  verdict.AddRow({"immutable baseline", std::to_string(reads.size()), "0",
                  FormatDouble(baseline_all.p50_us, 1),
                  FormatDouble(baseline_all.p99_us, 1)});
  for (const auto& r : reports) {
    verdict.AddRow({"store " + FormatDouble(r.write_pct, 0) + "% writes",
                    std::to_string(r.reads), std::to_string(r.writes),
                    FormatDouble(r.read_p50_us, 1),
                    FormatDouble(r.read_p99_us, 1)});
  }
  verdict.Print(std::cout);
  const bool p99_gate_ok = p99_ratio <= kP99Budget;
  std::cout << "read p99 at 1% writes vs immutable: "
            << FormatDouble(p99_ratio, 2) << "x ("
            << (p99_gate_ok ? "OK: <=2x" : "SHORTFALL: >2x")
            << "); overlay-vs-rebuild divergences: " << total_divergences
            << (total_divergences == 0 ? " (OK)" : " (FAIL)") << "\n";
  // Attribute the 1%-writes tail: which timed stage is widest at p99.
  // When the headline ratio runs past budget, this is the row to read —
  // the scan-heavy classes' cache probes (attribute_by_type,
  // topk_related, the only cached ones) absorb each commit's tag bumps,
  // while write-path stages (WAL append, overlay merge) never block
  // readers directly.
  std::string tail_stage;
  if (!reports[1].stage_rows.empty()) {
    const StageRow* widest = &reports[1].stage_rows[0];
    for (const StageRow& row : reports[1].stage_rows) {
      if (row.p99_us > widest->p99_us) widest = &row;
    }
    tail_stage = widest->stage;
    if (!widest->query_class.empty()) tail_stage += "." + widest->query_class;
    std::cout << "tail attribution at 1% writes: widest stage p99 is "
              << tail_stage << " at " << FormatDouble(widest->p99_us, 1)
              << " us\n";
  }
  if (!p99_gate_ok) {
    // Soft gate: a noisy-neighbor CI box can blow the tail without the
    // store being wrong, so the budget miss is a loud warning plus a
    // machine-readable verdict in the JSON, not an exit code.
    std::cout << "WARN: read p99 tail-latency budget exceeded ("
              << FormatDouble(p99_ratio, 2) << "x > "
              << FormatDouble(kP99Budget, 1)
              << "x immutable baseline at 1% writes)\n";
  }

  // ---- Fixed-overlay commit table ---------------------------------------
  PrintBanner(std::cout,
              "Commit cost at a fixed overlay size (8-mutation commits, no "
              "cache, no WAL; a report, not a gate)");
  std::vector<CommitRow> commit_rows;
  TablePrinter commit_table(
      {"target entries", "delta_size", "run entries", "commit p50 us"});
  for (const size_t target : kOverlaySizes) {
    commit_rows.push_back(FixedOverlayCommits(base_kg, universe, target,
                                              2800 + target));
    const CommitRow& row = commit_rows.back();
    commit_table.AddRow({std::to_string(row.target),
                         std::to_string(row.delta_size),
                         std::to_string(row.run_entries),
                         FormatDouble(row.commit_p50_us, 1)});
  }
  commit_table.Print(std::cout);
  const double commit_ratio =
      commit_rows.front().commit_p50_us > 0.0
          ? commit_rows.back().commit_p50_us / commit_rows.front().commit_p50_us
          : 0.0;
  std::cout << "commit p50 at ~2000 entries / at ~100 entries: "
            << FormatDouble(commit_ratio, 2) << "x\n";

  // ---- JSON report -----------------------------------------------------
  {
    std::ostringstream json;
    json << "{\"workload\":" << kOps
         << ",\"snapshot\":{\"nodes\":" << base_snap.num_nodes()
         << ",\"predicates\":" << base_snap.num_predicates()
         << ",\"triples\":" << base_snap.num_triples() << "}"
         << ",\"baseline\":" << baseline_stats.ToJson()
         << ",\"ratios\":[";
    for (size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      if (i) json << ",";
      json << "{\"write_pct\":" << JsonNumber(r.write_pct)
           << ",\"reads\":" << r.reads << ",\"writes\":" << r.writes
           << ",\"seconds\":" << JsonNumber(r.seconds)
           << ",\"write_p50_us\":" << JsonNumber(r.write_p50_us)
           << ",\"write_p99_us\":" << JsonNumber(r.write_p99_us)
           << ",\"compactions\":" << r.compactions
           << ",\"divergences\":" << r.divergences
           << ",\"stats\":" << r.stats.ToJson()
           << ",\"stages\":" << StageRowsJson(r.stage_rows) << "}";
    }
    json << "],\"p99_ratio_at_1pct\":" << JsonNumber(p99_ratio)
         << ",\"p99_budget\":" << JsonNumber(kP99Budget)
         << ",\"p99_gate\":\"" << (p99_gate_ok ? "ok" : "warn") << "\""
         << ",\"tail_stage_at_1pct\":\"" << tail_stage << "\""
         << ",\"divergences\":" << total_divergences
         << ",\"fixed_overlay_commits\":[";
    for (size_t i = 0; i < commit_rows.size(); ++i) {
      const CommitRow& row = commit_rows[i];
      if (i) json << ",";
      json << "{\"target_entries\":" << row.target
           << ",\"delta_size\":" << row.delta_size
           << ",\"run_entries\":" << row.run_entries
           << ",\"commit_p50_us\":" << JsonNumber(row.commit_p50_us) << "}";
    }
    json << "],\"commit_p50_ratio_2000_100\":" << JsonNumber(commit_ratio)
         << "}";
    const obs::JsonSink sink("store", 42, ExecPolicy::Hardware().num_threads);
    KG_CHECK_OK(sink.WriteFile("BENCH_store.json", json.str()));
  }

  // Divergence is a correctness bug in the overlay/compaction path; a slow
  // p99 is a perf regression to investigate, not a wrong answer.
  return total_divergences == 0 ? 0 : 1;
}
