// Reproduces Figure 3: "Extraction quality from semi-structured websites,
// showing that ClosedIE has achieved over 90% accuracy, whereas OpenIE
// has shown the promise to increase knowledge, but has much lower
// accuracy." Also covers the §2.3 inline claims: wrapper induction >95%
// accuracy (but needs per-site annotations), and zero-shot extraction for
// unseen domains.
//
// Substitution: production websites are replaced by templated synthetic
// sites rendered from a hidden database (DESIGN.md §6).

#include <iostream>

#include "common/rng.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/extraction_scoring.h"
#include "extract/distant_supervision.h"
#include "extract/open_extraction.h"
#include "extract/wrapper_induction.h"
#include "extract/zeroshot_extraction.h"
#include "obs/trace.h"
#include "synth/website_generator.h"

namespace {

using namespace kg;  // NOLINT

struct MethodResult {
  std::string method;
  core::ExtractionQuality quality;
  size_t annotated_pages = 0;  ///< Human annotation cost.
};

// Harness-level per-method stages: one root span each, rolled up into
// wall time and pages/sec after the aggregate table.
obs::Tracer g_tracer(/*seed=*/42);

// Seed KG for distant supervision: clean canonical values for the
// head-biased half of each domain.
extract::SeedKnowledge MakeSeed(const synth::EntityUniverse& universe,
                                synth::SourceDomain domain,
                                size_t count) {
  extract::SeedKnowledge seed;
  switch (domain) {
    case synth::SourceDomain::kMovies:
      for (size_t i = 0; i < std::min(count, universe.movies().size());
           ++i) {
        const auto& m = universe.movies()[i];
        seed.AddEntity(m.title,
                       {{"release_year", std::to_string(m.release_year)},
                        {"genre", m.genre},
                        {"director", universe.people()[m.director].name}});
      }
      break;
    case synth::SourceDomain::kPeople:
      for (size_t i = 0; i < std::min(count, universe.people().size());
           ++i) {
        const auto& p = universe.people()[i];
        seed.AddEntity(p.name,
                       {{"birth_year", std::to_string(p.birth_year)},
                        {"nationality", p.nationality}});
      }
      break;
    case synth::SourceDomain::kMusic:
      for (size_t i = 0; i < std::min(count, universe.songs().size());
           ++i) {
        const auto& s = universe.songs()[i];
        seed.AddEntity(s.title,
                       {{"artist", universe.people()[s.artist].name},
                        {"year", std::to_string(s.year)},
                        {"genre", s.genre}});
      }
      break;
  }
  return seed;
}

}  // namespace

int main() {
  std::cout << "E2/E3 / Figure 3: knowledge extraction from "
               "semi-structured websites (seed 42)\n";
  synth::UniverseOptions uopt;
  uopt.num_people = 3000;
  uopt.num_movies = 2000;
  uopt.num_songs = 1000;
  Rng rng(42);
  const auto universe = synth::EntityUniverse::Generate(uopt, rng);

  // A 12-site corpus across the three domains with varied templates.
  const auto corpus = synth::GenerateWebCorpus(universe, 12, 150, rng);

  MethodResult wrapper{"wrapper induction", {}, 0};
  MethodResult closed{"ClosedIE (Ceres)", {}, 0};
  MethodResult open{"OpenIE (OpenCeres)", {}, 0};
  MethodResult zeroshot{"zero-shot GNN", {}, 0};

  // Zero-shot model: trained once on annotated sites from movie+people
  // domains only, applied to music sites (unseen domain).
  extract::ZeroshotExtractor zs;
  {
    obs::Span stage = g_tracer.Root("zero_shot.fit");
    std::vector<extract::ZeroshotExtractor::TrainingPage> training;
    for (const auto& site : corpus) {
      if (site.domain == synth::SourceDomain::kMusic) continue;
      for (size_t p = 0; p < std::min<size_t>(site.pages.size(), 40);
           ++p) {
        extract::ZeroshotExtractor::TrainingPage tp;
        tp.page = &site.pages[p].dom;
        for (const auto& [attr, node] : site.pages[p].value_nodes) {
          tp.value_nodes.push_back(node);
        }
        training.push_back(tp);
      }
    }
    Rng zs_rng(7);
    zs.Fit(training, {}, zs_rng);
    stage.SetAttr("items", static_cast<uint64_t>(training.size()));
  }

  TablePrinter per_site({"site", "domain", "method", "accuracy",
                         "extracted", "open gain", "annotated pages"});
  for (const auto& site : corpus) {
    const char* domain_name =
        site.domain == synth::SourceDomain::kMovies   ? "movies"
        : site.domain == synth::SourceDomain::kPeople ? "people"
                                                      : "music";
    // Wrapper induction: 5 annotated pages per site.
    {
      obs::Span stage = g_tracer.Root("wrapper.induce_extract");
      constexpr size_t kAnnotated = 5;
      std::vector<const extract::DomPage*> pages;
      std::vector<extract::PageAnnotation> annotations;
      for (size_t p = 0; p < kAnnotated; ++p) {
        pages.push_back(&site.pages[p].dom);
        extract::PageAnnotation ann;
        for (const auto& [attr, node] : site.pages[p].value_nodes) {
          ann[attr] = node;
        }
        annotations.push_back(std::move(ann));
      }
      const auto w = extract::Wrapper::Induce(pages, annotations);
      core::ExtractionQuality q;
      for (size_t p = kAnnotated; p < site.pages.size(); ++p) {
        core::ScoreClosedExtractions(site.pages[p],
                                     w.Extract(site.pages[p].dom), &q);
      }
      stage.SetAttr("items",
                    static_cast<uint64_t>(site.pages.size() - kAnnotated));
      wrapper.quality.extracted += q.extracted;
      wrapper.quality.correct += q.correct;
      wrapper.annotated_pages += kAnnotated;
      q.Finish();
      per_site.AddRow({site.name, domain_name, "wrapper",
                       FormatDouble(q.accuracy, 3),
                       std::to_string(q.extracted), "-",
                       std::to_string(kAnnotated)});
    }
    // ClosedIE via distant supervision: no annotations, a seed KG.
    {
      obs::Span stage = g_tracer.Root("closed_ie.fit_extract");
      stage.SetAttr("items", static_cast<uint64_t>(site.pages.size()));
      const size_t seed_size =
          site.domain == synth::SourceDomain::kMovies   ? 800
          : site.domain == synth::SourceDomain::kPeople ? 1200
                                                        : 400;
      const auto seed = MakeSeed(universe, site.domain, seed_size);
      std::vector<const extract::DomPage*> pages;
      for (const auto& page : site.pages) pages.push_back(&page.dom);
      extract::DistantlySupervisedExtractor extractor;
      extractor.Fit(pages, seed, {});
      core::ExtractionQuality q;
      for (const auto& page : site.pages) {
        core::ScoreClosedExtractions(page, extractor.Extract(page.dom),
                                     &q);
      }
      closed.quality.extracted += q.extracted;
      closed.quality.correct += q.correct;
      q.Finish();
      per_site.AddRow({site.name, domain_name, "ClosedIE",
                       FormatDouble(q.accuracy, 3),
                       std::to_string(q.extracted), "-", "0"});
    }
    // OpenIE: no schema at all.
    {
      obs::Span stage = g_tracer.Root("open_ie.extract");
      stage.SetAttr("items", static_cast<uint64_t>(site.pages.size()));
      core::ExtractionQuality q;
      for (const auto& page : site.pages) {
        core::ScoreOpenExtractions(site, page,
                                   extract::OpenExtract(page.dom, {}),
                                   &q);
      }
      open.quality.extracted += q.extracted;
      open.quality.correct += q.correct;
      open.quality.correct_open += q.correct_open;
      q.Finish();
      per_site.AddRow({site.name, domain_name, "OpenIE",
                       FormatDouble(q.accuracy, 3),
                       std::to_string(q.extracted),
                       std::to_string(q.correct_open), "0"});
    }
    // Zero-shot on the unseen domain only.
    if (site.domain == synth::SourceDomain::kMusic) {
      obs::Span stage = g_tracer.Root("zero_shot.extract");
      stage.SetAttr("items", static_cast<uint64_t>(site.pages.size()));
      core::ExtractionQuality q;
      for (const auto& page : site.pages) {
        core::ScoreOpenExtractions(site, page, zs.Extract(page.dom), &q);
      }
      zeroshot.quality.extracted += q.extracted;
      zeroshot.quality.correct += q.correct;
      zeroshot.quality.correct_open += q.correct_open;
      q.Finish();
      per_site.AddRow({site.name, domain_name, "zero-shot",
                       FormatDouble(q.accuracy, 3),
                       std::to_string(q.extracted),
                       std::to_string(q.correct_open), "0"});
    }
  }

  PrintBanner(std::cout, "Per-site results");
  per_site.Print(std::cout);

  PrintBanner(std::cout, "Figure 3 — aggregate");
  TablePrinter aggregate({"method", "accuracy", "triples extracted",
                          "correct beyond ontology", "annotation cost"});
  for (auto* m : {&wrapper, &closed, &open, &zeroshot}) {
    m->quality.Finish();
    aggregate.AddRow(
        {m->method, FormatDouble(m->quality.accuracy, 3),
         FormatCount(static_cast<int64_t>(m->quality.extracted)),
         m->method.find("wrapper") != std::string::npos ||
                 m->method.find("Closed") != std::string::npos
             ? "-"
             : FormatCount(static_cast<int64_t>(m->quality.correct_open)),
         std::to_string(m->annotated_pages) + " pages"});
  }
  aggregate.Print(std::cout);

  PrintBanner(std::cout, "Reproduction verdict");
  const bool wrapper_ok = wrapper.quality.accuracy > 0.95;
  const bool closed_ok = closed.quality.accuracy > 0.90;
  const bool open_gap = open.quality.accuracy < closed.quality.accuracy;
  const bool open_gain = open.quality.correct_open > 0;
  std::cout << "wrapper >95%: " << (wrapper_ok ? "yes" : "NO")
            << "; ClosedIE >90%: " << (closed_ok ? "yes" : "NO")
            << "; OpenIE less accurate: " << (open_gap ? "yes" : "NO")
            << "; OpenIE adds ontology-unknown knowledge: "
            << (open_gain ? "yes" : "NO") << "\n";
  std::cout << "Paper: Ceres/ClosedIE >90% accuracy (production); "
               "OpenIE increases knowledge at much lower accuracy; "
               "wrapper induction >95% but needs per-site annotation.\n";

  PrintBanner(std::cout, "Stage timing");
  obs::PrintStageTable(std::cout, obs::Tracer::RollUp(&g_tracer));
  return 0;
}
