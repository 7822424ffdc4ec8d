#include "graph/paths.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace kg::graph {

std::string RelationPathToString(const KnowledgeGraph& kg,
                                 const RelationPath& path) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += "/";
    if (path[i].inverse) out += "^";
    out += kg.PredicateName(path[i].predicate);
  }
  return out;
}

std::vector<TripleId> ShortestPath(const KnowledgeGraph& kg, NodeId from,
                                   NodeId to, size_t max_depth) {
  if (from == to) return {};
  // BFS over undirected edges, remembering the triple that discovered each
  // node.
  std::unordered_map<NodeId, TripleId> via;
  std::unordered_map<NodeId, NodeId> prev;
  std::deque<std::pair<NodeId, size_t>> frontier{{from, 0}};
  std::unordered_set<NodeId> seen{from};
  while (!frontier.empty()) {
    auto [cur, depth] = frontier.front();
    frontier.pop_front();
    if (depth >= max_depth) continue;
    auto expand = [&](TripleId tid, NodeId next) {
      if (!seen.insert(next).second) return false;
      via[next] = tid;
      prev[next] = cur;
      if (next == to) return true;
      frontier.push_back({next, depth + 1});
      return false;
    };
    for (TripleId tid : kg.TriplesWithSubject(cur)) {
      if (expand(tid, kg.triple(tid).object)) goto found;
    }
    for (TripleId tid : kg.TriplesWithObject(cur)) {
      if (expand(tid, kg.triple(tid).subject)) goto found;
    }
  }
  return {};
found:
  std::vector<TripleId> path;
  for (NodeId cur = to; cur != from; cur = prev[cur]) {
    path.push_back(via[cur]);
  }
  return {path.rbegin(), path.rend()};
}

std::vector<NodeId> Neighborhood(const KnowledgeGraph& kg, NodeId center,
                                 size_t radius) {
  std::vector<NodeId> out{center};
  std::unordered_set<NodeId> seen{center};
  size_t level_end = 1;
  for (size_t depth = 0; depth < radius; ++depth) {
    const size_t start = out.size() - level_end;
    const size_t end = out.size();
    for (size_t i = start; i < end; ++i) {
      const NodeId cur = out[i];
      for (TripleId tid : kg.TriplesWithSubject(cur)) {
        const NodeId next = kg.triple(tid).object;
        if (seen.insert(next).second) out.push_back(next);
      }
      for (TripleId tid : kg.TriplesWithObject(cur)) {
        const NodeId next = kg.triple(tid).subject;
        if (seen.insert(next).second) out.push_back(next);
      }
    }
    level_end = out.size() - end;
    if (level_end == 0) break;
  }
  return out;
}

namespace {

void EnumerateRec(const KnowledgeGraph& kg, NodeId cur, NodeId to,
                  size_t remaining, RelationPath* prefix,
                  RelationPathCounts* counts, size_t* budget) {
  if (*budget == 0) return;
  if (!prefix->empty() && cur == to) {
    auto& entry = (*counts)[RelationPathToString(kg, *prefix)];
    entry.first = *prefix;
    ++entry.second;
    // A grounding may continue through `to`, so do not return.
  }
  if (remaining == 0) return;
  for (TripleId tid : kg.TriplesWithSubject(cur)) {
    if (*budget == 0) return;
    --*budget;
    prefix->push_back({kg.triple(tid).predicate, false});
    EnumerateRec(kg, kg.triple(tid).object, to, remaining - 1, prefix,
                 counts, budget);
    prefix->pop_back();
  }
  for (TripleId tid : kg.TriplesWithObject(cur)) {
    if (*budget == 0) return;
    --*budget;
    prefix->push_back({kg.triple(tid).predicate, true});
    EnumerateRec(kg, kg.triple(tid).subject, to, remaining - 1, prefix,
                 counts, budget);
    prefix->pop_back();
  }
}

}  // namespace

void EnumerateRelationPaths(const KnowledgeGraph& kg, NodeId from, NodeId to,
                            size_t max_len, size_t max_groundings,
                            RelationPathCounts* counts) {
  RelationPath prefix;
  size_t budget = max_groundings;
  EnumerateRec(kg, from, to, max_len, &prefix, counts, &budget);
}

double PathReachProbability(const KnowledgeGraph& kg, NodeId from, NodeId to,
                            const RelationPath& path,
                            const Triple* excluded) {
  // Distribution over nodes after each step of a uniform random walk
  // constrained to the path's predicates.
  std::unordered_map<NodeId, double> dist{{from, 1.0}};
  for (const PathStep& step : path) {
    std::unordered_map<NodeId, double> next;
    for (const auto& [node, prob] : dist) {
      std::vector<NodeId> targets =
          step.inverse ? kg.Subjects(step.predicate, node)
                       : kg.Objects(node, step.predicate);
      if (excluded != nullptr && step.predicate == excluded->predicate) {
        // Leave-one-out: drop the excluded edge's endpoint when this hop
        // would traverse exactly that edge.
        const NodeId here = step.inverse ? excluded->object
                                         : excluded->subject;
        const NodeId there = step.inverse ? excluded->subject
                                          : excluded->object;
        if (node == here) {
          targets.erase(std::remove(targets.begin(), targets.end(), there),
                        targets.end());
        }
      }
      if (targets.empty()) continue;
      const double share = prob / static_cast<double>(targets.size());
      for (NodeId t : targets) next[t] += share;
    }
    dist = std::move(next);
    if (dist.empty()) return 0.0;
  }
  auto it = dist.find(to);
  return it == dist.end() ? 0.0 : it->second;
}

}  // namespace kg::graph
