#include "synth/scale_world.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace kg::synth {

namespace {

/// splitmix64 finalizer: the per-entity hash behind every closed-form
/// choice in the world. Unrelated (seed, s, j) triples land on unrelated
/// outputs, so the generated graph has no accidental structure.
uint64_t Mix(uint64_t seed, uint64_t s, uint64_t j) {
  uint64_t x = seed ^ (s * 0x9E3779B97F4A7C15ULL) ^
               ((j * 0xBF58476D1CE4E5B9ULL) + 0x94D049BB133111EBULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

std::string PaddedName(char prefix, uint64_t i, int width) {
  std::string digits = std::to_string(i);
  KG_CHECK(digits.size() <= static_cast<size_t>(width));
  std::string out(1, prefix);
  out.append(static_cast<size_t>(width) - digits.size(), '0');
  out += digits;
  return out;
}

/// Predicate dense ids are assigned by sorted name; these literals are
/// already in sorted order, so the enum index *is* the id.
constexpr std::array<const char*, 3> kPredicates = {"has_brand",
                                                    "related_to", "type"};
constexpr uint32_t kPredHasBrand = 0;
constexpr uint32_t kPredRelatedTo = 1;
constexpr uint32_t kPredType = 2;
static_assert(std::string_view(kPredicates[0]) < kPredicates[1] &&
              std::string_view(kPredicates[1]) < kPredicates[2]);

/// The related-to objects of `s`, sorted and deduplicated — the same set
/// whether it is streamed into the builder or asserted into a
/// KnowledgeGraph (which deduplicates on AddTriple).
void RelatedObjects(const ScaleWorldSpec& spec, uint64_t s,
                    std::vector<uint32_t>* out) {
  out->clear();
  for (uint32_t j = 0; j < spec.related_per_entity; ++j) {
    out->push_back(
        static_cast<uint32_t>(Mix(spec.seed, s, j + 1) % spec.num_entities));
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

uint32_t BrandOf(const ScaleWorldSpec& spec, uint64_t s) {
  return static_cast<uint32_t>(Mix(spec.seed, s, 0) %
                               spec.EffectiveBrands());
}

uint32_t CategoryOf(const ScaleWorldSpec& spec, uint64_t s) {
  return static_cast<uint32_t>(
      Mix(spec.seed, s, spec.related_per_entity + 1) % spec.num_categories);
}

}  // namespace

uint32_t ScaleWorldSpec::EffectiveBrands() const {
  if (num_brands != 0) return num_brands;
  const uint32_t root = static_cast<uint32_t>(
      std::sqrt(static_cast<double>(num_entities)));
  return std::max<uint32_t>(16, root);
}

uint64_t ScaleWorldSpec::TotalTriples() const {
  uint64_t total = 0;
  std::vector<uint32_t> related;
  for (uint64_t s = 0; s < num_entities; ++s) {
    RelatedObjects(*this, s, &related);
    total += 2 + related.size();  // has_brand + type + related edges
  }
  return total;
}

std::string ScaleEntityName(uint64_t i) { return PaddedName('e', i, 9); }
std::string ScaleBrandName(uint32_t i) { return PaddedName('v', i, 8); }
std::string ScaleCategoryName(uint32_t i) { return PaddedName('c', i, 4); }

void ForEachScaleTriple(
    const ScaleWorldSpec& spec,
    const std::function<void(uint32_t s, uint32_t p, uint32_t o)>& sink) {
  KG_CHECK(spec.num_entities <= 999'999'999ULL);
  KG_CHECK(spec.num_entities > 0 && spec.num_categories > 0);
  const uint32_t brand_base = static_cast<uint32_t>(spec.num_entities);
  const uint32_t cat_base = brand_base + spec.EffectiveBrands();
  std::vector<uint32_t> related;
  for (uint64_t s = 0; s < spec.num_entities; ++s) {
    const uint32_t s32 = static_cast<uint32_t>(s);
    sink(s32, kPredHasBrand, brand_base + BrandOf(spec, s));
    RelatedObjects(spec, s, &related);
    for (const uint32_t o : related) sink(s32, kPredRelatedTo, o);
    sink(s32, kPredType, cat_base + CategoryOf(spec, s));
  }
}

serve::KgSnapshot BuildScaleSnapshot(const ScaleWorldSpec& spec) {
  serve::SnapshotBuilder builder;
  for (uint64_t i = 0; i < spec.num_entities; ++i) {
    builder.AddNode(ScaleEntityName(i), graph::NodeKind::kEntity);
  }
  for (uint32_t i = 0; i < spec.EffectiveBrands(); ++i) {
    builder.AddNode(ScaleBrandName(i), graph::NodeKind::kText);
  }
  for (uint32_t i = 0; i < spec.num_categories; ++i) {
    builder.AddNode(ScaleCategoryName(i), graph::NodeKind::kClass);
  }
  for (const char* p : kPredicates) builder.AddPredicate(p);
  auto built = builder.Build(
      [&spec](const serve::SnapshotBuilder::TripleSink& sink) {
        ForEachScaleTriple(spec, sink);
      });
  KG_CHECK_OK(built.status());  // the generator's order is correct by design
  return *std::move(built);
}

graph::KnowledgeGraph BuildScaleKnowledgeGraph(const ScaleWorldSpec& spec) {
  graph::KnowledgeGraph kg;
  const graph::Provenance prov{"scale_world", 1.0, 0};
  const uint32_t brand_base = static_cast<uint32_t>(spec.num_entities);
  const uint32_t cat_base = brand_base + spec.EffectiveBrands();
  ForEachScaleTriple(spec, [&](uint32_t s, uint32_t p, uint32_t o) {
    const std::string subject = ScaleEntityName(s);
    const std::string object =
        o >= cat_base   ? ScaleCategoryName(o - cat_base)
        : o >= brand_base ? ScaleBrandName(o - brand_base)
                          : ScaleEntityName(o);
    const graph::NodeKind object_kind =
        o >= cat_base   ? graph::NodeKind::kClass
        : o >= brand_base ? graph::NodeKind::kText
                          : graph::NodeKind::kEntity;
    kg.AddTriple(subject, kPredicates[p], object, graph::NodeKind::kEntity,
                 object_kind, prov);
  });
  return kg;
}

serve::Query ScaleSampleQuery(const ScaleWorldSpec& spec, uint64_t i) {
  const uint64_t h = Mix(spec.seed ^ 0xA5A5A5A5A5A5A5A5ULL, i, 0);
  const std::string entity = ScaleEntityName(h % spec.num_entities);
  switch (i % 20) {
    case 18:
      return serve::Query::AttributeByType(
          ScaleCategoryName(static_cast<uint32_t>(h % spec.num_categories)),
          "has_brand");
    case 19:
      return serve::Query::TopKRelated(entity, 8);
    default:
      return i % 2 == 0 ? serve::Query::PointLookup(entity, "has_brand")
                        : serve::Query::Neighborhood(entity);
  }
}

}  // namespace kg::synth
