#include "core/entity_kg_pipeline.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/hash.h"
#include "common/logging.h"

namespace kg::core {

EntityKgBuilder::EntityKgBuilder(synth::SourceDomain domain,
                                 const Options& options)
    : domain_(domain), options_(options) {}

std::string EntityKgBuilder::NextEntityName() {
  return "ent:" + std::to_string(entity_counter_++);
}

Status EntityKgBuilder::FetchSource(
    const synth::SourceTable& table, const Rng& rng,
    std::optional<synth::SourceTable>* payload) {
  if (options_.faults == nullptr) return Status::OK();
  obs::Span span =
      obs::Tracer::Start(options_.tracer, "entity.fetch_source");
  span.SetAttr("source", table.source_name);
  const FaultInjector injector(*options_.faults);
  SourceDegradation row;
  row.source = table.source_name;
  CircuitBreaker& breaker =
      breakers_
          .try_emplace(table.source_name,
                       options_.retry.breaker_failure_threshold)
          .first->second;
  const RetryOutcome outcome = RetryWithBackoff(
      options_.retry, rng.Split(Fnv1a64(table.source_name)), &breaker,
      [&](size_t attempt) {
        const FaultInjector::Attempt probe =
            injector.Probe(table.source_name, attempt);
        return AttemptResult{probe.status, probe.latency_ms};
      });
  row.attempts = outcome.attempts;
  row.retries = outcome.retries;
  row.virtual_ms = outcome.virtual_ms;
  span.SetAttr("attempts", static_cast<uint64_t>(outcome.attempts));
  span.SetAttr("virtual_ms", outcome.virtual_ms, 3);
  span.SetAttr("quarantined", outcome.status.ok() ? "false" : "true");
  if (!outcome.status.ok()) {
    row.quarantined = true;
    row.final_status = outcome.status;
    for (const synth::SourceRecord& r : table.records) {
      row.claims_dropped += r.fields.size();
    }
    row.records_dropped = table.records.size();
    degradation_.sources.push_back(std::move(row));
    return outcome.status;
  }
  const double keep = injector.KeepFraction(table.source_name);
  const bool corrupting = injector.plan().corrupt_rate > 0.0;
  if (keep < 1.0 || corrupting) {
    synth::SourceTable delivered = table;
    if (keep < 1.0 && !delivered.records.empty()) {
      // Truncated page: the tail of the payload never arrives.
      const size_t kept = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(
                 keep * static_cast<double>(delivered.records.size()))));
      for (size_t i = kept; i < delivered.records.size(); ++i) {
        row.claims_dropped += delivered.records[i].fields.size();
      }
      row.records_dropped = delivered.records.size() - kept;
      delivered.records.resize(kept);
    }
    if (corrupting) {
      for (synth::SourceRecord& record : delivered.records) {
        for (auto& [attr, value] : record.fields) {
          std::string mutated = injector.MaybeCorrupt(
              table.source_name, record.local_id + "\x01" + attr, value);
          if (mutated != value) {
            value = std::move(mutated);
            ++row.claims_corrupted;
          }
        }
      }
    }
    *payload = std::move(delivered);
  }
  degradation_.sources.push_back(std::move(row));
  return Status::OK();
}

Status EntityKgBuilder::TryIngestAnchor(const synth::SourceTable& table,
                                        Rng& rng) {
  std::optional<synth::SourceTable> payload;
  KG_RETURN_IF_ERROR(FetchSource(table, rng, &payload));
  IngestAnchorImpl(payload ? *payload : table, rng);
  return Status::OK();
}

Status EntityKgBuilder::TryIngestAndLink(const synth::SourceTable& table,
                                         Rng& rng) {
  std::optional<synth::SourceTable> payload;
  KG_RETURN_IF_ERROR(FetchSource(table, rng, &payload));
  IngestAndLinkImpl(payload ? *payload : table, rng);
  return Status::OK();
}

void EntityKgBuilder::IngestAnchor(const synth::SourceTable& table,
                                   Rng& rng) {
  KG_CHECK_OK(TryIngestAnchor(table, rng));
}

void EntityKgBuilder::IngestAndLink(const synth::SourceTable& table,
                                    Rng& rng) {
  KG_CHECK_OK(TryIngestAndLink(table, rng));
}

void EntityKgBuilder::IngestAnchorImpl(const synth::SourceTable& table,
                                       Rng& rng) {
  (void)rng;
  obs::Span span =
      obs::Tracer::Start(options_.tracer, "entity.ingest_anchor");
  span.SetAttr("source", table.source_name);
  span.SetAttr("items", static_cast<uint64_t>(table.records.size()));
  const auto mapping = ManualMappingFor(table);
  std::vector<uint32_t> truth;
  const auto records = ToRecordSet(table, mapping, &truth);

  SourceIngestReport report;
  report.source = table.source_name;
  report.records = records.records.size();
  for (size_t i = 0; i < records.records.size(); ++i) {
    EntityState state;
    state.hidden_truth = truth[i];
    state.merged = records.records[i];
    state.node = kg_.AddNode(NextEntityName(), graph::NodeKind::kEntity);
    const size_t entity_index = entities_.size();
    for (const auto& [attr, value] : records.records[i].attrs) {
      claims_[{entity_index, attr}].push_back(
          integrate::Claim{table.source_name, value});
    }
    entities_.push_back(std::move(state));
    ++report.new_entities;
  }
  report.kg_entities_after = entities_.size();
  report.kg_triples_after = kg_.num_triples();
  reports_.push_back(report);
}

void EntityKgBuilder::IngestAndLinkImpl(const synth::SourceTable& table,
                                        Rng& rng) {
  obs::Span span =
      obs::Tracer::Start(options_.tracer, "entity.ingest_and_link");
  span.SetAttr("source", table.source_name);
  span.SetAttr("items", static_cast<uint64_t>(table.records.size()));
  const auto mapping = ManualMappingFor(table);
  std::vector<uint32_t> truth;
  const auto records = ToRecordSet(table, mapping, &truth);
  const auto schema = LinkageSchemaFor(domain_);

  // Current-KG side of the linkage problem.
  integrate::RecordSet kg_side;
  kg_side.source_name = "kg";
  std::vector<uint32_t> kg_truth;
  for (const EntityState& e : entities_) {
    kg_side.records.push_back(e.merged);
    kg_truth.push_back(e.hidden_truth);
  }

  // Oracle-labeled training pairs within the label budget.
  ml::Dataset pool;
  {
    obs::Span child = span.Child("pair_pool");
    pool = BuildLinkagePairs(records, truth, kg_side, kg_truth, schema,
                             options_.exec);
    child.SetAttr("items", static_cast<uint64_t>(pool.examples.size()));
  }
  ml::Dataset train;
  train.feature_names = pool.feature_names;
  if (!pool.examples.empty()) {
    const size_t budget =
        std::min(options_.linkage_label_budget, pool.examples.size());
    for (size_t s : rng.SampleIndices(pool.examples.size(), budget)) {
      train.examples.push_back(pool.examples[s]);
    }
    // Guarantee both classes (tiny budgets can be one-sided).
    bool has_pos = false, has_neg = false;
    for (const auto& ex : train.examples) {
      (ex.label == 1 ? has_pos : has_neg) = true;
    }
    if (!has_pos || !has_neg) {
      for (const auto& ex : pool.examples) {
        if ((ex.label == 1 && !has_pos) || (ex.label == 0 && !has_neg)) {
          train.examples.push_back(ex);
          (ex.label == 1 ? has_pos : has_neg) = true;
          if (has_pos && has_neg) break;
        }
      }
    }
  }

  SourceIngestReport report;
  report.source = table.source_name;
  report.records = records.records.size();

  std::vector<int> linked_to(records.records.size(), -1);
  if (!train.examples.empty()) {
    integrate::EntityLinker linker;
    Rng fit_rng = rng.Fork();
    // Tree training is already scheduling-independent (one pre-forked RNG
    // per tree), so it may inherit the pipeline's thread budget.
    ml::ForestOptions forest_options = options_.forest;
    if (options_.exec.parallel() && forest_options.num_threads <= 1) {
      forest_options.num_threads = options_.exec.num_threads;
    }
    {
      obs::Span child = span.Child("train_linker");
      child.SetAttr("items", static_cast<uint64_t>(train.examples.size()));
      linker.Fit(train, forest_options, fit_rng);
    }
    obs::Span link_span = span.Child("link");
    link_span.SetAttr("items", static_cast<uint64_t>(records.records.size()));
    const auto matches =
        linker.Link(records, kg_side, schema, options_.linkage_threshold,
                    options_.exec);
    size_t correct = 0;
    for (const integrate::Match& m : matches) {
      linked_to[m.index_a] = static_cast<int>(m.index_b);
      if (truth[m.index_a] == kg_truth[m.index_b]) ++correct;
    }
    report.linked = matches.size();
    link_span.SetAttr("matches", static_cast<uint64_t>(matches.size()));
    report.linkage_precision =
        matches.empty() ? 0.0
                        : static_cast<double>(correct) / matches.size();
    // Recall: linkable records = those whose truth exists in the KG side.
    std::set<uint32_t> kg_ids(kg_truth.begin(), kg_truth.end());
    size_t linkable = 0;
    for (uint32_t t : truth) {
      if (kg_ids.count(t)) ++linkable;
    }
    report.linkage_recall =
        linkable == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(linkable);
  }

  obs::Span staging_span = span.Child("stage_claims");
  staging_span.SetAttr("items",
                       static_cast<uint64_t>(records.records.size()));
  // Serial pass: entity creation (the name counter and node ids depend on
  // record order) and merged-view enrichment for linking later sources.
  std::vector<size_t> entity_of(records.records.size());
  for (size_t i = 0; i < records.records.size(); ++i) {
    if (linked_to[i] >= 0) {
      entity_of[i] = static_cast<size_t>(linked_to[i]);
      // Enrich the merged view with newly seen attributes (helps linking
      // later sources).
      for (const auto& [attr, value] : records.records[i].attrs) {
        entities_[entity_of[i]].merged.attrs.emplace(attr, value);
      }
    } else {
      EntityState state;
      state.hidden_truth = truth[i];
      state.merged = records.records[i];
      state.node = kg_.AddNode(NextEntityName(), graph::NodeKind::kEntity);
      entity_of[i] = entities_.size();
      entities_.push_back(std::move(state));
      ++report.new_entities;
    }
  }
  // Sharded pass: stage this source's claims into per-record slots, then
  // merge in record order — per-key claim lists end up in the exact order
  // the serial append produced.
  std::vector<std::vector<std::pair<std::string, integrate::Claim>>>
      staged(records.records.size());
  ParallelForChunked(
      options_.exec, records.records.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          staged[i].reserve(records.records[i].attrs.size());
          for (const auto& [attr, value] : records.records[i].attrs) {
            staged[i].emplace_back(
                attr, integrate::Claim{table.source_name, value});
          }
        }
      });
  for (size_t i = 0; i < staged.size(); ++i) {
    for (auto& [attr, claim] : staged[i]) {
      claims_[{entity_of[i], attr}].push_back(std::move(claim));
    }
  }
  report.kg_entities_after = entities_.size();
  report.kg_triples_after = kg_.num_triples();
  reports_.push_back(report);
}

void EntityKgBuilder::FuseValues() {
  obs::Span span = obs::Tracer::Start(options_.tracer, "entity.fuse");
  span.SetAttr("items", static_cast<uint64_t>(claims_.size()));
  // Re-key claims into string item ids for the fusion engine.
  integrate::ClaimSet claim_set;
  for (const auto& [key, claims] : claims_) {
    claim_set[std::to_string(key.first) + "\x01" + key.second] = claims;
  }
  std::map<std::string, integrate::FusedValue> fused;
  if (options_.use_accu_fusion) {
    fused = integrate::AccuFusion::Run(claim_set, {}).fused;
  } else {
    fused = integrate::MajorityVote(claim_set);
  }
  for (const auto& [key, claims] : claims_) {
    const auto& value =
        fused[std::to_string(key.first) + "\x01" + key.second];
    kg_.AddTriple(entities_[key.first].node, kg_.AddPredicate(key.second),
                  kg_.AddNode(value.value, graph::NodeKind::kText),
                  graph::Provenance{"fusion", value.confidence, 0});
  }
  if (!reports_.empty()) {
    reports_.back().kg_triples_after = kg_.num_triples();
  }
}

double EntityKgBuilder::KgAccuracy(
    const std::map<std::pair<uint32_t, std::string>, std::string>&
        truth_of) const {
  size_t total = 0, correct = 0;
  for (size_t e = 0; e < entities_.size(); ++e) {
    for (graph::TripleId tid : kg_.TriplesWithSubject(entities_[e].node)) {
      const graph::Triple& t = kg_.triple(tid);
      auto it = truth_of.find(
          {entities_[e].hidden_truth, kg_.PredicateName(t.predicate)});
      if (it == truth_of.end()) continue;
      ++total;
      if (kg_.NodeName(t.object) == it->second) ++correct;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(correct) /
                          static_cast<double>(total);
}

}  // namespace kg::core
