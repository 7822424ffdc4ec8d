#ifndef KGRAPH_GRAPH_PATHS_H_
#define KGRAPH_GRAPH_PATHS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/knowledge_graph.h"

namespace kg::graph {

/// One step of a relation path: a predicate traversed forward (s->o) or
/// backward (o->s).
struct PathStep {
  PredicateId predicate = 0;
  bool inverse = false;

  friend bool operator==(const PathStep&, const PathStep&) = default;
};

/// A typed relation path, e.g. [acted_in, ^directed_by] — the feature
/// alphabet of PRA-style link prediction (§2.4).
using RelationPath = std::vector<PathStep>;

/// Renders "acted_in/^directed_by" for reports.
std::string RelationPathToString(const KnowledgeGraph& kg,
                                 const RelationPath& path);

/// Undirected shortest path between two nodes; empty when unreachable or
/// when source == target. Each element is a triple id along the path.
std::vector<TripleId> ShortestPath(const KnowledgeGraph& kg, NodeId from,
                                   NodeId to, size_t max_depth = 6);

/// Nodes within `radius` undirected hops of `center` (includes center).
std::vector<NodeId> Neighborhood(const KnowledgeGraph& kg, NodeId center,
                                 size_t radius);

/// Relation paths keyed by RelationPathToString, each with the number of
/// its groundings (how many concrete node sequences realize it).
using RelationPathCounts =
    std::map<std::string, std::pair<RelationPath, int>>;

/// Adds to `counts` the relation paths of length <= `max_len` from `from`
/// to `to` and their groundings, walking at most `max_groundings` edges.
/// PRA mines its feature paths with it.
void EnumerateRelationPaths(const KnowledgeGraph& kg, NodeId from, NodeId to,
                            size_t max_len, size_t max_groundings,
                            RelationPathCounts* counts);

/// Random-walk probability that a walk from `from` following `path`
/// terminates at `to` (PRA's path feature value), estimated exactly by
/// dynamic programming over the reachable distribution. When `excluded`
/// is non-null, walks may not traverse that specific edge in either
/// direction — PRA's leave-one-out rule, which prevents a path from
/// "proving" a triple by walking over the triple itself.
double PathReachProbability(const KnowledgeGraph& kg, NodeId from, NodeId to,
                            const RelationPath& path,
                            const Triple* excluded = nullptr);

}  // namespace kg::graph

#endif  // KGRAPH_GRAPH_PATHS_H_
