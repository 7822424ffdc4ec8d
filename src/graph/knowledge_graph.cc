#include "graph/knowledge_graph.h"

#include <algorithm>

#include "common/logging.h"

namespace kg::graph {

namespace {
std::string NodeKey(std::string_view name, NodeKind kind) {
  std::string key;
  key.reserve(name.size() + 1);
  key.push_back(static_cast<char>(kind));
  key.append(name);
  return key;
}
}  // namespace

Result<NodeKind> NodeKindFromByte(uint8_t byte) {
  if (byte > static_cast<uint8_t>(NodeKind::kClass)) {
    return Status::InvalidArgument("unknown node kind byte: " +
                                   std::to_string(byte));
  }
  return static_cast<NodeKind>(byte);
}

NodeId KnowledgeGraph::AddNode(std::string_view name, NodeKind kind) {
  std::string key = NodeKey(name, kind);
  auto it = node_index_.find(key);
  if (it != node_index_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeRecord{std::string(name), kind});
  node_index_.emplace(std::move(key), id);
  return id;
}

Result<NodeId> KnowledgeGraph::FindNode(std::string_view name,
                                        NodeKind kind) const {
  auto it = node_index_.find(NodeKey(name, kind));
  if (it == node_index_.end()) {
    return Status::NotFound("node: " + std::string(name));
  }
  return it->second;
}

PredicateId KnowledgeGraph::AddPredicate(std::string_view name) {
  auto it = predicate_index_.find(std::string(name));
  if (it != predicate_index_.end()) return it->second;
  const PredicateId id = static_cast<PredicateId>(predicate_names_.size());
  predicate_names_.emplace_back(name);
  predicate_index_.emplace(std::string(name), id);
  return id;
}

Result<PredicateId> KnowledgeGraph::FindPredicate(
    std::string_view name) const {
  auto it = predicate_index_.find(std::string(name));
  if (it == predicate_index_.end()) {
    return Status::NotFound("predicate: " + std::string(name));
  }
  return it->second;
}

const std::string& KnowledgeGraph::NodeName(NodeId id) const {
  KG_CHECK(id < nodes_.size());
  return nodes_[id].name;
}

NodeKind KnowledgeGraph::GetNodeKind(NodeId id) const {
  KG_CHECK(id < nodes_.size());
  return nodes_[id].kind;
}

const std::string& KnowledgeGraph::PredicateName(PredicateId id) const {
  KG_CHECK(id < predicate_names_.size());
  return predicate_names_[id];
}

TripleId KnowledgeGraph::AddTriple(NodeId s, PredicateId p, NodeId o,
                                   Provenance prov) {
  KG_CHECK(s < nodes_.size()) << "bad subject";
  KG_CHECK(o < nodes_.size()) << "bad object";
  KG_CHECK(p < predicate_names_.size()) << "bad predicate";
  const uint64_t key = TripleKey(s, p, o);
  auto it = spo_index_.find(key);
  if (it != spo_index_.end()) {
    for (TripleId id : it->second) {
      const Triple& t = triples_[id];
      if (t.subject == s && t.predicate == p && t.object == o) {
        if (removed_[id]) {
          removed_[id] = false;
          ++live_triples_;
          provenance_[id].clear();
        }
        provenance_[id].push_back(std::move(prov));
        return id;
      }
    }
  }
  const TripleId id = static_cast<TripleId>(triples_.size());
  triples_.push_back(Triple{s, p, o});
  provenance_.push_back({std::move(prov)});
  removed_.push_back(false);
  ++live_triples_;
  spo_index_[key].push_back(id);
  s_index_[s].push_back(id);
  o_index_[o].push_back(id);
  p_index_[p].push_back(id);
  return id;
}

TripleId KnowledgeGraph::AddTriple(std::string_view subject,
                                   std::string_view predicate,
                                   std::string_view object,
                                   NodeKind subject_kind,
                                   NodeKind object_kind, Provenance prov) {
  const NodeId s = AddNode(subject, subject_kind);
  const PredicateId p = AddPredicate(predicate);
  const NodeId o = AddNode(object, object_kind);
  return AddTriple(s, p, o, std::move(prov));
}

void KnowledgeGraph::RemoveTriple(TripleId id) {
  KG_CHECK(id < triples_.size());
  if (!removed_[id]) {
    removed_[id] = true;
    --live_triples_;
  }
}

TripleId KnowledgeGraph::FindTriple(NodeId s, PredicateId p,
                                    NodeId o) const {
  auto it = spo_index_.find(TripleKey(s, p, o));
  if (it == spo_index_.end()) return kInvalidTriple;
  for (TripleId id : it->second) {
    const Triple& t = triples_[id];
    if (t.subject == s && t.predicate == p && t.object == o &&
        !removed_[id]) {
      return id;
    }
  }
  return kInvalidTriple;
}

bool KnowledgeGraph::HasTriple(NodeId s, PredicateId p, NodeId o) const {
  return FindTriple(s, p, o) != kInvalidTriple;
}

std::vector<NodeId> KnowledgeGraph::Objects(NodeId s, PredicateId p) const {
  std::vector<NodeId> out;
  auto it = s_index_.find(s);
  if (it == s_index_.end()) return out;
  for (TripleId id : it->second) {
    if (!removed_[id] && triples_[id].predicate == p) {
      out.push_back(triples_[id].object);
    }
  }
  return out;
}

std::vector<NodeId> KnowledgeGraph::Subjects(PredicateId p,
                                             NodeId o) const {
  std::vector<NodeId> out;
  auto it = o_index_.find(o);
  if (it == o_index_.end()) return out;
  for (TripleId id : it->second) {
    if (!removed_[id] && triples_[id].predicate == p) {
      out.push_back(triples_[id].subject);
    }
  }
  return out;
}

namespace {
std::vector<TripleId> FilterLive(
    const std::unordered_map<uint32_t, std::vector<TripleId>>& index,
    uint32_t key, const std::vector<bool>& removed) {
  std::vector<TripleId> out;
  auto it = index.find(key);
  if (it == index.end()) return out;
  out.reserve(it->second.size());
  for (TripleId id : it->second) {
    if (!removed[id]) out.push_back(id);
  }
  return out;
}
}  // namespace

std::vector<TripleId> KnowledgeGraph::TriplesWithSubject(NodeId s) const {
  return FilterLive(s_index_, s, removed_);
}

std::vector<TripleId> KnowledgeGraph::TriplesWithObject(NodeId o) const {
  return FilterLive(o_index_, o, removed_);
}

std::vector<TripleId> KnowledgeGraph::TriplesWithPredicate(
    PredicateId p) const {
  return FilterLive(p_index_, p, removed_);
}

std::vector<TripleId> KnowledgeGraph::AllTriples() const {
  std::vector<TripleId> out;
  out.reserve(live_triples_);
  for (TripleId id = 0; id < triples_.size(); ++id) {
    if (!removed_[id]) out.push_back(id);
  }
  return out;
}

std::string KnowledgeGraph::TripleToString(TripleId id) const {
  KG_CHECK(id < triples_.size());
  const Triple& t = triples_[id];
  return nodes_[t.subject].name + " --" + predicate_names_[t.predicate] +
         "--> " + nodes_[t.object].name;
}

uint64_t TripleFingerprint(std::string_view subject, NodeKind subject_kind,
                           std::string_view predicate, std::string_view object,
                           NodeKind object_kind) {
  std::string key;
  key += subject;
  key += '\x01';
  key += static_cast<char>(subject_kind);
  key += '\x01';
  key += predicate;
  key += '\x01';
  key += object;
  key += '\x01';
  key += static_cast<char>(object_kind);
  return Fnv1a64(key);
}

uint64_t TripleSetFingerprint(const KnowledgeGraph& kg) {
  uint64_t fingerprint = 0;
  for (TripleId id : kg.AllTriples()) {
    const Triple& t = kg.triple(id);
    // Commutative combine (sum) keeps the fingerprint independent of
    // triple enumeration order.
    fingerprint += TripleFingerprint(
        kg.NodeName(t.subject), kg.GetNodeKind(t.subject),
        kg.PredicateName(t.predicate), kg.NodeName(t.object),
        kg.GetNodeKind(t.object));
  }
  return fingerprint;
}

double KnowledgeGraph::MaxConfidence(TripleId id) const {
  KG_CHECK(id < provenance_.size());
  double best = 0.0;
  for (const Provenance& p : provenance_[id]) {
    best = std::max(best, p.confidence);
  }
  return best;
}

}  // namespace kg::graph
