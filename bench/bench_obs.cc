// E22: observability overhead and determinism. The instrumentation
// contract is that watching the system never changes what it computes
// and costs <=5% on the hottest path we serve. Three rungs over the
// fig5 snapshot's point-lookup loop measure that directly:
//   A  bare QueryEngine (no registry — compiled-out equivalent of
//      KG_OBS_NOOP at runtime: every obs call site is skipped)
//   B  registry counters ("serve.queries.*", one sharded-atomic
//      increment per query) — the always-on production configuration;
//      gated at <=5% over A
//   C  counters + per-query latency histograms (time_queries: two
//      clock reads per query) — reported, not gated; timing is opt-in
//      precisely because clocks dwarf counter increments
// A fourth ladder measures trace propagation on the *remote*
// point-lookup path (loopback RpcClient -> RpcServer):
//   D  remote lookups, no trace context on the wire
//   E  the same requests carrying a sampled TraceContext (17-byte frame
//      extension each way, server-side extraction) — gated at <=5%
//      over D, because context propagation is the always-on distributed
//      configuration
//   F  E against a server that also records "serve.*" spans —
//      reported, not gated; span recording is opt-in like rung C
// The determinism half reruns an instrumented workload at 1/2/8
// threads: metrics exposition and (FixedTraceClock) trace JSON must be
// byte-identical across thread counts, or the binary exits non-zero.
// Emits BENCH_obs.json and BENCH_obs_trace.json through obs::JsonSink.

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "common/exec_policy.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/textrich_kg_pipeline.h"
#include "graph/knowledge_graph.h"
#include "obs/bench_sink.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/client.h"
#include "rpc/frame.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "synth/behavior_generator.h"
#include "synth/catalog_generator.h"
#include "synth/entity_universe.h"

namespace {

using namespace kg;  // NOLINT

constexpr size_t kLookups = 200000;   // per rung, per repetition
constexpr size_t kRepetitions = 5;    // best-of, interleaved
constexpr double kOverheadBudgetPct = 5.0;
constexpr double kZipfExponent = 1.05;
// Remote rungs go through a serial loopback client, so each lookup
// costs a full request/response round trip; keep the count down.
constexpr size_t kRemoteLookups = 20000;

// The fig5 universe, exactly as bench_serve compiles it, so the gated
// path is the same one the serving bench measures.
graph::KnowledgeGraph BuildFig5Kg(synth::EntityUniverse* universe) {
  synth::UniverseOptions uopt;
  uopt.num_people = 800;
  uopt.num_movies = 1200;
  uopt.num_songs = 100;
  Rng rng(42);
  *universe = synth::EntityUniverse::Generate(uopt, rng);
  return universe->ToKnowledgeGraph();
}

// Zipf-popular point lookups only: the cheapest query class, where a
// fixed per-query cost is the largest relative overhead.
std::vector<serve::Query> MakeLookups(const synth::EntityUniverse& u,
                                      size_t n, Rng& rng) {
  const ZipfDistribution person_zipf(u.people().size(), kZipfExponent);
  const std::vector<std::string> preds = {"name", "birth_year",
                                          "nationality", "acted_in"};
  std::vector<serve::Query> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(serve::Query::PointLookup(
        synth::EntityUniverse::PersonNodeName(
            u.people()[person_zipf.Sample(rng)].id),
        preds[rng.UniformIndex(preds.size())]));
  }
  return out;
}

// One timed pass over the workload; the row-count sum keeps the loop
// from being optimized away.
double TimeReplay(const serve::QueryEngine& engine,
                  const std::vector<serve::Query>& workload,
                  size_t* sink) {
  WallTimer clock;
  size_t rows = 0;
  for (const serve::Query& q : workload) {
    rows += engine.Execute(q).size();
  }
  const double seconds = clock.ElapsedSeconds();
  *sink += rows;
  return seconds;
}

// One timed serial pass over the loopback wire; `trace` (when non-null)
// rides every request's trace-context extension.
double TimeRemoteReplay(rpc::RpcClient& client,
                        const std::vector<serve::Query>& workload,
                        const rpc::TraceContext* trace, size_t* sink) {
  WallTimer clock;
  size_t rows = 0;
  for (const serve::Query& q : workload) {
    const auto result = client.Execute(q, trace);
    KG_CHECK_OK(result.status());
    rows += result->size();
  }
  const double seconds = clock.ElapsedSeconds();
  *sink += rows;
  return seconds;
}

// A started loopback server plus one handshaken client against it.
struct RemoteRig {
  std::unique_ptr<rpc::RpcServer> server;
  std::unique_ptr<rpc::RpcClient> client;
};

RemoteRig MakeRemoteRig(const serve::QueryEngine* engine,
                        obs::Tracer* tracer) {
  RemoteRig rig;
  rpc::RpcServerOptions options;
  options.worker_threads = 1;
  options.tracer = tracer;
  auto listener = std::make_unique<rpc::InMemoryTransportServer>();
  rpc::InMemoryTransportServer* loopback = listener.get();
  rig.server = std::make_unique<rpc::RpcServer>(
      rpc::EngineHandler(engine), std::move(listener), options);
  KG_CHECK_OK(rig.server->Start());
  auto transport = loopback->Connect();
  KG_CHECK_OK(transport.status());
  rig.client = std::make_unique<rpc::RpcClient>(std::move(*transport));
  KG_CHECK_OK(rig.client->Handshake().status());
  return rig;
}

// A small text-rich build traced under a FixedTraceClock: chunk spans
// from the sharded extraction loop are named by chunk begin index, so
// the exported JSON is a pure function of (seed, structure) — the
// byte-equality witness for trace determinism.
std::string TracedTextRichBuild(size_t threads, std::string* kg_digest) {
  Rng rng(42);
  synth::CatalogOptions copt;
  copt.num_types = 8;
  copt.num_products = 200;
  const auto catalog = synth::ProductCatalog::Generate(copt, rng);
  synth::BehaviorOptions bopt;
  bopt.num_searches = 1000;
  const auto behavior = synth::GenerateBehavior(catalog, bopt, rng);

  obs::FixedTraceClock clock;
  obs::Tracer tracer(/*seed=*/42, &clock);
  core::TextRichBuildOptions opt;
  opt.train_fraction = 0.15;
  opt.exec = ExecPolicy::WithThreads(threads);
  opt.tracer = &tracer;
  Rng build_rng(42);
  const auto build =
      core::BuildTextRichKg(catalog, behavior, opt, build_rng);
  *kg_digest = std::to_string(graph::TripleSetFingerprint(build.kg));
  return tracer.ToJson();
}

// Metrics exposition for one instrumented batch replay at `threads`.
std::string MeteredReplay(const serve::KgSnapshot& snap,
                          const std::vector<serve::Query>& workload,
                          size_t threads) {
  obs::MetricsRegistry registry;
  serve::ServeOptions options;
  options.exec = ExecPolicy::WithThreads(threads);
  options.registry = &registry;
  const serve::QueryEngine engine(snap, options);
  const auto results = engine.BatchExecute(workload);
  KG_CHECK(!results.empty()) << "empty batch replay";
  return registry.ToJson();
}

}  // namespace

int main() {
  std::cout << "E22: observability overhead gate + exposition "
               "determinism (seed 42)\n";
#ifdef KG_OBS_NOOP
  std::cout << "built with KG_OBS_NOOP: instrumented rungs compile to "
               "the bare path; the gate is trivially satisfied\n";
#endif

  synth::EntityUniverse universe;
  const graph::KnowledgeGraph kg = BuildFig5Kg(&universe);
  const serve::KgSnapshot snap = serve::KgSnapshot::Compile(kg);
  Rng rng(42);
  const std::vector<serve::Query> workload =
      MakeLookups(universe, kLookups, rng);

  // ---- Overhead rungs --------------------------------------------------
  obs::MetricsRegistry registry_b;
  obs::MetricsRegistry registry_c;
  const serve::QueryEngine bare(snap, {});
  serve::ServeOptions opt_b;
  opt_b.registry = &registry_b;
  const serve::QueryEngine counted(snap, opt_b);
  serve::ServeOptions opt_c;
  opt_c.registry = &registry_c;
  opt_c.time_queries = true;
  const serve::QueryEngine timed(snap, opt_c);

  // Interleaved best-of-N: rung-vs-rung drift (frequency scaling, page
  // cache) hits all three rungs alike within a repetition.
  double best_a = 1e30, best_b = 1e30, best_c = 1e30;
  size_t sink = 0;
  for (size_t rep = 0; rep < kRepetitions; ++rep) {
    best_a = std::min(best_a, TimeReplay(bare, workload, &sink));
    best_b = std::min(best_b, TimeReplay(counted, workload, &sink));
    best_c = std::min(best_c, TimeReplay(timed, workload, &sink));
  }
  KG_CHECK(sink > 0) << "replay produced no rows";
  const double ns_a = best_a / kLookups * 1e9;
  const double ns_b = best_b / kLookups * 1e9;
  const double ns_c = best_c / kLookups * 1e9;
  const double counter_pct = (best_b / best_a - 1.0) * 100.0;
  const double timed_pct = (best_c / best_a - 1.0) * 100.0;
  const bool gate_ok = counter_pct <= kOverheadBudgetPct;

  PrintBanner(std::cout, "Point-lookup overhead (best of " +
                             std::to_string(kRepetitions) + " x " +
                             std::to_string(kLookups) + " lookups)");
  TablePrinter table({"rung", "ns/lookup", "overhead"});
  table.AddRow({"A bare engine", FormatDouble(ns_a, 1), "-"});
  table.AddRow({"B registry counters", FormatDouble(ns_b, 1),
                FormatDouble(counter_pct, 2) + "%"});
  table.AddRow({"C + latency histograms", FormatDouble(ns_c, 1),
                FormatDouble(timed_pct, 2) + "%"});
  table.Print(std::cout);
  std::cout << "counter-rung gate: " << FormatDouble(counter_pct, 2)
            << "% vs budget " << FormatDouble(kOverheadBudgetPct, 1)
            << "% -> " << (gate_ok ? "OK" : "FAIL") << "\n";
  const uint64_t counted_queries =
      registry_b.GetCounter("serve.queries.point_lookup").Value();
  KG_CHECK(counted_queries == kRepetitions * kLookups)
      << "counter missed queries";

  // ---- Remote trace-propagation rungs ----------------------------------
  const std::vector<serve::Query> remote_workload(
      workload.begin(), workload.begin() + kRemoteLookups);
  rpc::TraceContext trace_ctx;
  trace_ctx.trace_id = 0x6b67746163655f31ULL;
  trace_ctx.parent_span_id = 0x726f6f745f737061ULL;
  trace_ctx.sampled = true;
  obs::Tracer remote_tracer(/*seed=*/42);
  RemoteRig plain_rig = MakeRemoteRig(&bare, /*tracer=*/nullptr);
  RemoteRig traced_rig = MakeRemoteRig(&bare, &remote_tracer);
  double best_d = 1e30, best_e = 1e30, best_f = 1e30;
  for (size_t rep = 0; rep < kRepetitions; ++rep) {
    best_d = std::min(best_d, TimeRemoteReplay(*plain_rig.client,
                                               remote_workload, nullptr,
                                               &sink));
    best_e = std::min(best_e, TimeRemoteReplay(*plain_rig.client,
                                               remote_workload, &trace_ctx,
                                               &sink));
    best_f = std::min(best_f, TimeRemoteReplay(*traced_rig.client,
                                               remote_workload, &trace_ctx,
                                               &sink));
    // Keep the recording rung honest rep over rep: span retention must
    // not grow without bound across repetitions.
    remote_tracer.Clear();
  }
  traced_rig.server->Stop();
  plain_rig.server->Stop();
  const double us_d = best_d / kRemoteLookups * 1e6;
  const double us_e = best_e / kRemoteLookups * 1e6;
  const double us_f = best_f / kRemoteLookups * 1e6;
  const double propagation_pct = (best_e / best_d - 1.0) * 100.0;
  const double recording_pct = (best_f / best_d - 1.0) * 100.0;
  const bool propagation_gate_ok = propagation_pct <= kOverheadBudgetPct;

  PrintBanner(std::cout, "Remote trace propagation (best of " +
                             std::to_string(kRepetitions) + " x " +
                             std::to_string(kRemoteLookups) +
                             " loopback lookups)");
  TablePrinter remote_table({"rung", "us/lookup", "overhead"});
  remote_table.AddRow({"D remote bare", FormatDouble(us_d, 2), "-"});
  remote_table.AddRow({"E + trace context", FormatDouble(us_e, 2),
                       FormatDouble(propagation_pct, 2) + "%"});
  remote_table.AddRow({"F + span recording", FormatDouble(us_f, 2),
                       FormatDouble(recording_pct, 2) + "%"});
  remote_table.Print(std::cout);
  std::cout << "propagation-rung gate: " << FormatDouble(propagation_pct, 2)
            << "% vs budget " << FormatDouble(kOverheadBudgetPct, 1)
            << "% -> " << (propagation_gate_ok ? "OK" : "FAIL") << "\n";

  // ---- Metrics exposition determinism at 1/2/8 threads -----------------
  const std::vector<serve::Query> det_workload(
      workload.begin(), workload.begin() + 20000);
  const std::string metrics_1 = MeteredReplay(snap, det_workload, 1);
  const std::string metrics_2 = MeteredReplay(snap, det_workload, 2);
  const std::string metrics_8 = MeteredReplay(snap, det_workload, 8);
  const bool metrics_deterministic =
      metrics_1 == metrics_2 && metrics_2 == metrics_8;

  // ---- Trace determinism at 1/2/8 threads ------------------------------
  std::string digest_1, digest_2, digest_8;
  const std::string trace_1 = TracedTextRichBuild(1, &digest_1);
  const std::string trace_2 = TracedTextRichBuild(2, &digest_2);
  const std::string trace_8 = TracedTextRichBuild(8, &digest_8);
  const bool trace_deterministic = trace_1 == trace_2 && trace_2 == trace_8;
  const bool kg_deterministic = digest_1 == digest_2 && digest_2 == digest_8;

  PrintBanner(std::cout, "Exposition determinism (1/2/8 threads)");
  std::cout << "metrics JSON byte-identical: "
            << (metrics_deterministic ? "yes" : "NO") << "\n"
            << "trace JSON byte-identical:   "
            << (trace_deterministic ? "yes" : "NO") << "\n"
            << "traced KG bit-identical:     "
            << (kg_deterministic ? "yes" : "NO") << "\n";

  // ---- Artifacts -------------------------------------------------------
  const size_t threads = ExecPolicy::Hardware().num_threads;
  {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("lookups").UInt(kLookups);
    w.Key("repetitions").UInt(kRepetitions);
    w.Key("rungs").BeginObject();
    w.Key("bare_ns").Double(ns_a, 3);
    w.Key("counters_ns").Double(ns_b, 3);
    w.Key("timed_ns").Double(ns_c, 3);
    w.EndObject();
    w.Key("counter_overhead_pct").Double(counter_pct, 3);
    w.Key("timed_overhead_pct").Double(timed_pct, 3);
    w.Key("budget_pct").Double(kOverheadBudgetPct, 3);
    w.Key("gate_ok").Bool(gate_ok);
    w.Key("remote").BeginObject();
    w.Key("lookups").UInt(kRemoteLookups);
    w.Key("bare_us").Double(us_d, 3);
    w.Key("trace_context_us").Double(us_e, 3);
    w.Key("span_recording_us").Double(us_f, 3);
    w.Key("propagation_overhead_pct").Double(propagation_pct, 3);
    w.Key("recording_overhead_pct").Double(recording_pct, 3);
    w.Key("gate_ok").Bool(propagation_gate_ok);
    w.EndObject();
    w.Key("metrics_deterministic").Bool(metrics_deterministic);
    w.Key("trace_deterministic").Bool(trace_deterministic);
    w.Key("metrics").Raw(metrics_1);
    w.EndObject();
    const obs::JsonSink sink_json("obs", 42, threads);
    KG_CHECK_OK(sink_json.WriteFile("BENCH_obs.json", w.Take()));
  }
  {
    const obs::JsonSink trace_sink("obs_trace", 42, threads);
    KG_CHECK_OK(trace_sink.WriteFile("BENCH_obs_trace.json", trace_8));
  }

  const bool ok = gate_ok && propagation_gate_ok && metrics_deterministic &&
                  trace_deterministic && kg_deterministic;
  PrintBanner(std::cout, "Observability verdict");
  std::cout << "verdict: " << (ok ? "BOUNDED & DETERMINISTIC" : "FAIL")
            << "\n";
  return ok ? 0 : 1;
}
