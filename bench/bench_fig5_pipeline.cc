// Reproduces Figure 5 and the §3.2 claims: the production extraction
// pipeline lifts raw NER quality (85-95%) above the production bar via
// tuning and ML post-processing, and the automated variant (Figure 5b)
// cuts time-to-deploy from "a couple of months to a couple of weeks"
// while retaining most of the quality. Also covers the §2.3-2.4
// scalability angle: both end-to-end builders re-run under
// ExecPolicy{hardware_concurrency} and must produce bit-identical KGs at
// a wall-clock speedup; the parallel builds run traced and print their
// spans rolled up per stage.

#include <fstream>
#include <iostream>
#include <sstream>

#include "common/exec_policy.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "obs/bench_sink.h"
#include "obs/trace.h"
#include "core/entity_kg_pipeline.h"
#include "core/textrich_kg_pipeline.h"
#include "textrich/pipeline.h"

namespace {

using namespace kg;  // NOLINT

struct ScalingRun {
  double seconds = 0.0;
  uint64_t fingerprint = 0;
};

ScalingRun RunEntityBuild(const ExecPolicy& exec, obs::Tracer* tracer) {
  synth::UniverseOptions uopt;
  uopt.num_people = 800;
  uopt.num_movies = 1200;
  uopt.num_songs = 100;
  Rng rng(42);
  const auto universe = synth::EntityUniverse::Generate(uopt, rng);
  synth::SourceOptions wiki, imdb, webdb;
  wiki.name = "wikipedia";
  wiki.coverage = 0.6;
  imdb.name = "imdb";
  imdb.coverage = 0.6;
  imdb.schema_dialect = 1;
  webdb.name = "webdb";
  webdb.coverage = 0.5;
  webdb.schema_dialect = 2;

  core::EntityKgBuilder::Options opt;
  opt.forest.num_trees = 40;
  opt.exec = exec;
  opt.tracer = tracer;
  core::EntityKgBuilder builder(synth::SourceDomain::kMovies, opt);
  const auto t_wiki = synth::EmitSource(universe, wiki, rng);
  const auto t_imdb = synth::EmitSource(universe, imdb, rng);
  const auto t_webdb = synth::EmitSource(universe, webdb, rng);

  WallTimer clock;
  ExitIfError(builder.TryIngestAnchor(t_wiki, rng), "ingest wikipedia");
  ExitIfError(builder.TryIngestAndLink(t_imdb, rng), "ingest imdb");
  ExitIfError(builder.TryIngestAndLink(t_webdb, rng), "ingest webdb");
  builder.FuseValues();
  return ScalingRun{clock.ElapsedSeconds(),
                    graph::TripleSetFingerprint(builder.kg())};
}

ScalingRun RunTextRichBuild(const ExecPolicy& exec, obs::Tracer* tracer) {
  Rng rng(42);
  synth::CatalogOptions copt;
  copt.num_types = 16;
  copt.num_products = 1200;
  const auto catalog = synth::ProductCatalog::Generate(copt, rng);
  synth::BehaviorOptions bopt;
  bopt.num_searches = 8000;
  const auto behavior = synth::GenerateBehavior(catalog, bopt, rng);

  core::TextRichBuildOptions opt;
  // Extractor training is the one serial stage; a lean training split
  // keeps it from dominating so the sharded per-page loop sets the
  // scaling ceiling (Amdahl).
  opt.train_fraction = 0.15;
  opt.exec = exec;
  opt.tracer = tracer;

  WallTimer clock;
  const auto build = core::TryBuildTextRichKg(catalog, behavior, opt, rng);
  ExitIfError(build.status(), "text-rich build");
  return ScalingRun{clock.ElapsedSeconds(),
                    graph::TripleSetFingerprint(build->kg)};
}

void ReportScaling(const std::string& name, const ScalingRun& serial,
                   const ScalingRun& parallel, const obs::Tracer& tracer,
                   size_t threads) {
  PrintBanner(std::cout,
              name + " — per-stage metrics (" + std::to_string(threads) +
                  " threads)");
  obs::PrintStageTable(std::cout, obs::Tracer::RollUp(&tracer));
  const double speedup =
      parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;
  std::cout << name << ": serial " << FormatDouble(serial.seconds, 2)
            << "s, parallel " << FormatDouble(parallel.seconds, 2)
            << "s, speedup " << FormatDouble(speedup, 2) << "x, KG "
            << (serial.fingerprint == parallel.fingerprint
                    ? "bit-identical"
                    : "MISMATCH (determinism bug!)")
            << "\n";
}

std::string JsonNumber(double v) { return FormatDouble(v, 3); }

std::string ScalingJson(const ScalingRun& serial, const ScalingRun& parallel,
                        size_t threads) {
  const double speedup =
      parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;
  return "{\"serial_seconds\":" + JsonNumber(serial.seconds) +
         ",\"parallel_seconds\":" + JsonNumber(parallel.seconds) +
         ",\"threads\":" + std::to_string(threads) +
         ",\"speedup\":" + JsonNumber(speedup) + ",\"bit_identical\":" +
         (serial.fingerprint == parallel.fingerprint ? "true" : "false") +
         "}";
}

}  // namespace

int main() {
  using namespace kg;  // NOLINT
  std::cout << "E6 / Figure 5: extraction pipeline quality and cost "
               "(seed 42)\n";
  synth::CatalogOptions copt;
  copt.num_types = 24;
  copt.num_products = 1500;
  Rng rng(42);
  const auto catalog = synth::ProductCatalog::Generate(copt, rng);

  const std::vector<std::string> attributes(
      catalog.attributes().begin(),
      catalog.attributes().begin() + 3);

  std::string modes_json;
  for (auto mode : {textrich::PipelineMode::kManual,
                    textrich::PipelineMode::kAutomated}) {
    const bool manual = mode == textrich::PipelineMode::kManual;
    const char* mode_name = manual ? "manual (Figure 5a)"
                                   : "automated (Figure 5b)";
    PrintBanner(std::cout, std::string("Pipeline: ") + mode_name);
    TablePrinter table({"attribute", "stage", "P", "R", "F1",
                        "cum. person-days"});
    double total_cost = 0.0;
    double final_f1_sum = 0.0;
    std::string stages_json;
    for (const auto& attr : attributes) {
      textrich::PipelineOptions popt;
      popt.mode = mode;
      Rng run_rng(7);
      const auto result =
          RunExtractionPipeline(catalog, attr, popt, run_rng);
      for (const auto& stage : result.stages) {
        table.AddRow({attr, stage.stage, FormatDouble(stage.precision, 3),
                      FormatDouble(stage.recall, 3),
                      FormatDouble(stage.f1, 3),
                      FormatDouble(stage.cost_person_days, 1)});
        if (!stages_json.empty()) stages_json += ",";
        stages_json += "{\"attribute\":\"" + attr + "\",\"stage\":\"" +
                       stage.stage +
                       "\",\"precision\":" + JsonNumber(stage.precision) +
                       ",\"recall\":" + JsonNumber(stage.recall) +
                       ",\"f1\":" + JsonNumber(stage.f1) +
                       ",\"cum_person_days\":" +
                       JsonNumber(stage.cost_person_days) + "}";
      }
      total_cost += result.total_cost_person_days;
      final_f1_sum += result.final_f1;
    }
    table.Print(std::cout);
    const double mean_f1 = final_f1_sum / attributes.size();
    std::cout << "mean final F1 " << FormatDouble(mean_f1, 3)
              << ", total cost " << FormatDouble(total_cost, 1)
              << " person-days for " << attributes.size()
              << " attributes\n";
    if (!modes_json.empty()) modes_json += ",";
    modes_json += std::string("{\"mode\":\"") +
                  (manual ? "manual" : "automated") +
                  "\",\"mean_final_f1\":" + JsonNumber(mean_f1) +
                  ",\"total_cost_person_days\":" + JsonNumber(total_cost) +
                  ",\"attributes\":" + std::to_string(attributes.size()) +
                  ",\"stages\":[" + stages_json + "]}";
  }

  PrintBanner(std::cout, "Reproduction verdict");
  std::cout << "Paper: base NER 85-95%; pipeline pushes >95% (manual) "
               "while automation cuts deployment cost ~an order of "
               "magnitude (months -> weeks) at a modest quality cost.\n";

  // ---- §2.3-2.4 scalability: parallel sharded construction ------------
  const ExecPolicy hw = ExecPolicy::Hardware();
  PrintBanner(std::cout,
              "Parallel sharded construction (ExecPolicy{" +
                  std::to_string(hw.num_threads) + " threads})");

  obs::Tracer entity_tracer(/*seed=*/42);
  const ScalingRun entity_serial =
      RunEntityBuild(ExecPolicy::Serial(), nullptr);
  const ScalingRun entity_parallel = RunEntityBuild(hw, &entity_tracer);
  ReportScaling("entity KG build", entity_serial, entity_parallel,
                entity_tracer, hw.num_threads);

  obs::Tracer textrich_tracer(/*seed=*/42);
  const ScalingRun textrich_serial =
      RunTextRichBuild(ExecPolicy::Serial(), nullptr);
  const ScalingRun textrich_parallel =
      RunTextRichBuild(hw, &textrich_tracer);
  ReportScaling("text-rich KG build", textrich_serial, textrich_parallel,
                textrich_tracer, hw.num_threads);

  PrintBanner(std::cout, "Scaling verdict");
  const bool deterministic =
      entity_serial.fingerprint == entity_parallel.fingerprint &&
      textrich_serial.fingerprint == textrich_parallel.fingerprint;
  const double entity_speedup =
      entity_parallel.seconds > 0.0
          ? entity_serial.seconds / entity_parallel.seconds
          : 0.0;
  std::cout << "serial==parallel KGs: " << (deterministic ? "yes" : "NO")
            << "; entity-build speedup at " << hw.num_threads
            << " threads: " << FormatDouble(entity_speedup, 2) << "x";
  if (hw.num_threads == 1) {
    std::cout << "  [single-core host: speedup not demonstrable here; "
                 "shape verified by the determinism tests]";
  } else if (entity_speedup >= 2.0) {
    std::cout << "  [SHAPE OK: >=2x over serial]";
  }
  std::cout << "\n";

  // ---- JSON report (BENCH_serve.json schema style) ---------------------
  {
    std::ostringstream json;
    json << "{\"pipelines\":[" << modes_json
         << "],\"scaling\":{\"entity\":"
         << ScalingJson(entity_serial, entity_parallel, hw.num_threads)
         << ",\"textrich\":"
         << ScalingJson(textrich_serial, textrich_parallel, hw.num_threads)
         << "},\"deterministic\":" << (deterministic ? "true" : "false")
         << "}";
    const obs::JsonSink sink("fig5", 42, hw.num_threads);
    KG_CHECK_OK(sink.WriteFile("BENCH_fig5.json", json.str()));
  }

  // A determinism mismatch is a correctness bug, not a perf shortfall:
  // fail the binary so CI catches it.
  return deterministic ? 0 : 1;
}
