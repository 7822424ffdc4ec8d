#include "core/textrich_kg_pipeline.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "common/strings.h"
#include "extract/opentag.h"
#include "textrich/cleaning.h"
#include "textrich/description_extractor.h"
#include "textrich/example_builder.h"
#include "textrich/product_graph.h"

namespace kg::core {
namespace {

/// Salt for per-page jitter streams, so page backoff draws never collide
/// with the small shard ids other stages pass to `Rng::Split`.
constexpr uint64_t kPageJitterSalt = 0x70616765'6A697474ULL;  // "pagejitt"

}  // namespace

TextRichKgBuild BuildTextRichKg(const synth::ProductCatalog& catalog,
                                const synth::BehaviorLog& behavior,
                                const TextRichBuildOptions& options,
                                Rng& rng) {
  Result<TextRichKgBuild> build =
      TryBuildTextRichKg(catalog, behavior, options, rng);
  KG_CHECK_OK(build.status());
  return std::move(build).value();
}

Result<TextRichKgBuild> TryBuildTextRichKg(
    const synth::ProductCatalog& catalog,
    const synth::BehaviorLog& behavior,
    const TextRichBuildOptions& options, Rng& rng) {
  TextRichKgBuild build;
  build.report.products = catalog.products().size();
  obs::Span root = obs::Tracer::Start(options.tracer, "textrich.build");
  root.SetAttr("items", static_cast<uint64_t>(catalog.products().size()));

  // 1. One-size-fits-all extractor: attribute-conditioned, type-aware,
  //    trained with distant supervision (§3.2-3.3).
  std::vector<size_t> train_idx, all_idx;
  {
    std::vector<size_t> test_idx;
    textrich::SplitIndices(catalog.products().size(),
                           options.train_fraction, &train_idx, &test_idx);
    all_idx.resize(catalog.products().size());
    for (size_t i = 0; i < all_idx.size(); ++i) all_idx[i] = i;
  }
  textrich::ExampleBuildOptions distant;
  distant.label_source = textrich::LabelSource::kDistant;
  const auto train_examples = textrich::FilterDistantExamples(
      textrich::BuildAttributeExamples(catalog, train_idx, "", distant));

  extract::TitleExtractor extractor;
  extract::TitleExtractorOptions extractor_options;
  extractor_options.attribute_conditioned = true;
  extractor_options.use_cluster_features = true;
  extractor_options.type_aware = true;
  extractor_options.tagger.epochs = 5;
  {
    obs::Span child = root.Child("fit_extractor");
    child.SetAttr("items", static_cast<uint64_t>(train_examples.size()));
    Rng fit_rng = rng.Fork();
    extractor.Fit(train_examples, extractor_options, fit_rng);
  }

  // 2. Extract assertions for every product. Pages are independent given
  //    the trained (immutable) extractor, so the loop shards under
  //    `options.exec`: each page writes its own slot, and the slots merge
  //    in page order below — bit-identical to the serial scan.
  std::map<uint32_t, std::map<std::string, std::string>> assertions;
  const bool faulting = options.faults != nullptr;
  const FaultInjector injector(faulting ? *options.faults : FaultPlan{});
  {
    obs::Span extract_span = root.Child("extract_pages");
    extract_span.SetAttr("items", static_cast<uint64_t>(all_idx.size()));
    std::vector<std::map<std::string, std::string>> page_values(
        all_idx.size());
    // Per-page fault accounting lands in index-addressed slots too, so
    // the degradation report is merged in page order below and stays
    // thread-count independent like the KG itself.
    std::vector<SourceDegradation> page_rows(faulting ? all_idx.size()
                                                      : 0);
    std::vector<char> quarantined(all_idx.size(), 0);
    ParallelForChunked(
        options.exec, all_idx.size(), [&](size_t begin, size_t end) {
          // Named by the chunk's begin index: concurrent same-name
          // siblings would get completion-order sequence numbers, and
          // the begin index is the schedule-independent identity.
          obs::Span chunk_span =
              extract_span.Child("chunk@" + std::to_string(begin));
          chunk_span.SetAttr("items", static_cast<uint64_t>(end - begin));
          for (size_t slot = begin; slot < end; ++slot) {
            const synth::Product& product =
                catalog.products()[all_idx[slot]];
            // The fault layer treats each page as a flaky source: fetch
            // with retries, then deliver a possibly truncated view. All
            // decisions are pure functions of (plan seed, page id,
            // attempt) — never of thread count or schedule.
            std::string source_id;
            synth::Product faulted_page;
            const synth::Product* view = &product;
            if (faulting) {
              source_id = "page:" + std::to_string(product.id);
              SourceDegradation& row = page_rows[slot];
              row.source = source_id;
              CircuitBreaker breaker(
                  options.retry.breaker_failure_threshold);
              const RetryOutcome outcome = RetryWithBackoff(
                  options.retry,
                  rng.Split(kPageJitterSalt ^ product.id), &breaker,
                  [&](size_t attempt) {
                    const FaultInjector::Attempt probe =
                        injector.Probe(source_id, attempt);
                    return AttemptResult{probe.status, probe.latency_ms};
                  });
              row.attempts = outcome.attempts;
              row.retries = outcome.retries;
              row.virtual_ms = outcome.virtual_ms;
              if (!outcome.status.ok()) {
                row.quarantined = true;
                row.final_status = outcome.status;
                row.claims_dropped =
                    catalog.AttributesForType(product.type).size();
                quarantined[slot] = 1;
                continue;
              }
              const double keep = injector.KeepFraction(source_id);
              if (keep < 1.0) {
                // Truncated page: the tail of the title/description
                // never arrives; catalog values are a separate store
                // and survive.
                faulted_page = product;
                if (!faulted_page.title_tokens.empty()) {
                  faulted_page.title_tokens.resize(std::max<size_t>(
                      1, static_cast<size_t>(std::ceil(
                             keep * static_cast<double>(
                                        faulted_page.title_tokens
                                            .size())))));
                }
                faulted_page.description.resize(static_cast<size_t>(
                    keep * static_cast<double>(
                               faulted_page.description.size())));
                view = &faulted_page;
              }
            }
            std::map<std::string, std::string> ner_stream;
            for (const std::string& attr :
                 catalog.AttributesForType(product.type)) {
              extract::AttributeExample ex;
              ex.tokens = view->title_tokens;
              ex.attribute = attr;
              ex.type_name = catalog.taxonomy().Name(product.type);
              const auto& parents =
                  catalog.taxonomy().Parents(product.type);
              if (!parents.empty()) {
                ex.category_name = catalog.taxonomy().Name(parents[0]);
              }
              for (size_t a = 0; a < catalog.attributes().size(); ++a) {
                if (catalog.attributes()[a] == attr) {
                  ex.attribute_cluster =
                      "c" + std::to_string(catalog.attribute_clusters()[a]);
                }
              }
              const auto values = extractor.ExtractValues(ex);
              if (!values.empty()) {
                ner_stream[attr] = values.front();
              }
            }
            // Lower-priority streams: description rules, then the
            // structured catalog — merged without overriding NER output.
            std::map<std::string, std::string> desc_stream;
            for (const auto& d : textrich::ExtractFromDescription(
                     view->description,
                     catalog.AttributesForType(product.type))) {
              desc_stream.emplace(d.attribute, d.value);
            }
            std::vector<std::map<std::string, std::string>> streams;
            streams.push_back(std::move(ner_stream));
            streams.push_back(std::move(desc_stream));
            if (options.backfill_from_catalog) {
              streams.push_back(product.catalog_values);
            }
            page_values[slot] = textrich::MergeExtractionStreams(streams);
            if (faulting && injector.plan().corrupt_rate > 0.0) {
              for (auto& [attr, value] : page_values[slot]) {
                std::string mutated =
                    injector.MaybeCorrupt(source_id, attr, value);
                if (mutated != value) {
                  value = std::move(mutated);
                  ++page_rows[slot].claims_corrupted;
                }
              }
            }
          }
        });
    for (size_t slot = 0; slot < all_idx.size(); ++slot) {
      if (quarantined[slot]) continue;
      assertions[catalog.products()[all_idx[slot]].id] =
          std::move(page_values[slot]);
    }
    if (faulting) {
      double virtual_ms = 0.0;
      size_t attempts = 0;
      for (const SourceDegradation& row : page_rows) {
        virtual_ms += row.virtual_ms;
        attempts += row.attempts;
        if (row.quarantined) ++build.report.pages_quarantined;
      }
      extract_span.SetAttr("attempts", static_cast<uint64_t>(attempts));
      extract_span.SetAttr("virtual_ms", virtual_ms, 3);
      extract_span.SetAttr(
          "quarantined",
          static_cast<uint64_t>(build.report.pages_quarantined));
      build.degradation.sources = std::move(page_rows);
    }
  }

  auto accuracy_of = [&](const std::map<
                         uint32_t, std::map<std::string, std::string>>&
                             current) {
    size_t total = 0, correct = 0;
    for (const auto& [pid, attrs] : current) {
      const synth::Product& product = catalog.products()[pid];
      for (const auto& [attr, value] : attrs) {
        ++total;
        auto it = product.true_values.find(attr);
        if (it != product.true_values.end() && it->second == value) {
          ++correct;
        }
      }
    }
    return total == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(total);
  };
  size_t extracted = 0;
  for (const auto& [pid, attrs] : assertions) extracted += attrs.size();
  build.report.extracted_assertions = extracted;
  build.report.accuracy_before_cleaning = accuracy_of(assertions);

  // 3. Cleaning.
  if (options.clean) {
    obs::Span child = root.Child("clean");
    child.SetAttr("items",
                  static_cast<uint64_t>(build.report.extracted_assertions));
    textrich::CatalogCleaner cleaner;
    std::vector<textrich::CatalogAssertion> corpus;
    for (const auto& [pid, attrs] : assertions) {
      const synth::Product& product = catalog.products()[pid];
      for (const auto& [attr, value] : attrs) {
        corpus.push_back(textrich::CatalogAssertion{
            pid, catalog.taxonomy().Name(product.type), attr, value,
            product.title + " " + product.description});
      }
    }
    cleaner.Fit(corpus);
    textrich::CatalogCleaner::Options clean_options;
    std::map<uint32_t, std::map<std::string, std::string>> cleaned;
    for (const textrich::CatalogAssertion& a : corpus) {
      if (!cleaner.ShouldDrop(a, clean_options)) {
        cleaned[a.product_id][a.attribute] = a.value;
      }
    }
    assertions = std::move(cleaned);
  }
  size_t kept = 0;
  for (const auto& [pid, attrs] : assertions) kept += attrs.size();
  build.report.after_cleaning = kept;
  build.report.accuracy_after_cleaning = accuracy_of(assertions);

  // 4. Taxonomy enrichment from behavior logs.
  if (options.mine_taxonomy) {
    obs::Span child = root.Child("mine_taxonomy");
    child.SetAttr("items", static_cast<uint64_t>(behavior.searches.size()));
    build.mined = textrich::MineTaxonomy(catalog, behavior, {});
    build.report.synonyms_added = build.mined.synonyms.size();
    build.report.hypernyms_mined = build.mined.hypernyms.size();
  }

  // 5. Assemble the bipartite product KG.
  obs::Span assemble_span = root.Child("assemble");
  assemble_span.SetAttr("items", static_cast<uint64_t>(kept));
  build.kg = textrich::BuildProductGraph(
      catalog, assertions,
      options.mine_taxonomy ? &build.mined : nullptr);
  build.report.kg_triples = build.kg.num_triples();
  build.report.text_object_fraction =
      textrich::ComputeProductGraphStats(build.kg).text_object_fraction;
  return build;
}

}  // namespace kg::core
