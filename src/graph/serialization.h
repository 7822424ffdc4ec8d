#ifndef KGRAPH_GRAPH_SERIALIZATION_H_
#define KGRAPH_GRAPH_SERIALIZATION_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "graph/knowledge_graph.h"

namespace kg::graph {

/// Escapes backslashes, tabs, and newlines so an arbitrary byte string can
/// ride in one field of the text formats (`SerializeKg`, WAL mutations).
std::string EscapeTsvField(std::string_view s);

/// Inverts `EscapeTsvField`. Unknown escapes decode to the escaped
/// character; a trailing lone backslash decodes to itself.
std::string UnescapeTsvField(std::string_view s);

/// A node kind's name in the text formats ("entity", "text" or "class"),
/// and its inverse, which refuses any other name.
const char* NodeKindName(NodeKind kind);
Result<NodeKind> ParseNodeKind(const std::string& name);

/// Serializes a KG to a TSV-style text format, one provenance entry per
/// line:
///   subject \t subject_kind \t predicate \t object \t object_kind \t
///   source \t confidence \t timestamp
/// Node kinds are "entity" / "text" / "class". Removed triples are not
/// emitted. The format is line-stable (sorted by triple id), so
/// serialized KGs diff cleanly.
std::string SerializeKg(const KnowledgeGraph& kg);

/// Parses a serialized KG. Rejects malformed lines with a descriptive
/// status; on success the returned graph round-trips (same triples,
/// kinds, and provenance, possibly different internal ids).
Result<KnowledgeGraph> DeserializeKg(const std::string& data);

/// File convenience wrappers.
Status SaveKg(const KnowledgeGraph& kg, const std::string& path);
Result<KnowledgeGraph> LoadKg(const std::string& path);

}  // namespace kg::graph

#endif  // KGRAPH_GRAPH_SERIALIZATION_H_
