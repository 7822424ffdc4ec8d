#include "graph/serialization.h"

#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace kg::graph {

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kEntity:
      return "entity";
    case NodeKind::kText:
      return "text";
    case NodeKind::kClass:
      return "class";
  }
  return "entity";
}

Result<NodeKind> ParseNodeKind(const std::string& name) {
  if (name == "entity") return NodeKind::kEntity;
  if (name == "text") return NodeKind::kText;
  if (name == "class") return NodeKind::kClass;
  return Status::InvalidArgument("unknown node kind: " + name);
}

// Tabs and newlines inside names would corrupt the line format.
std::string EscapeTsvField(std::string_view s) {
  std::string out = ReplaceAll(s, "\\", "\\\\");
  out = ReplaceAll(out, "\t", "\\t");
  out = ReplaceAll(out, "\n", "\\n");
  return out;
}

std::string UnescapeTsvField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case 't':
        out.push_back('\t');
        break;
      case 'n':
        out.push_back('\n');
        break;
      default:
        out.push_back(s[i]);
    }
  }
  return out;
}

std::string SerializeKg(const KnowledgeGraph& kg) {
  std::ostringstream out;
  for (TripleId id : kg.AllTriples()) {
    const Triple& t = kg.triple(id);
    for (const Provenance& prov : kg.provenance(id)) {
      out << EscapeTsvField(kg.NodeName(t.subject)) << '\t'
          << NodeKindName(kg.GetNodeKind(t.subject)) << '\t'
          << EscapeTsvField(kg.PredicateName(t.predicate)) << '\t'
          << EscapeTsvField(kg.NodeName(t.object)) << '\t'
          << NodeKindName(kg.GetNodeKind(t.object)) << '\t'
          << EscapeTsvField(prov.source) << '\t' << prov.confidence << '\t'
          << prov.timestamp << '\n';
    }
  }
  return out.str();
}

Result<KnowledgeGraph> DeserializeKg(const std::string& data) {
  KnowledgeGraph kg;
  size_t line_number = 0;
  for (const std::string& line : Split(data, '\n')) {
    ++line_number;
    if (line.empty()) continue;
    const auto fields = Split(line, '\t');
    if (fields.size() != 8) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": expected 8 fields, "
          "got " + std::to_string(fields.size()));
    }
    KG_ASSIGN_OR_RETURN(const NodeKind subject_kind, ParseNodeKind(fields[1]));
    KG_ASSIGN_OR_RETURN(const NodeKind object_kind, ParseNodeKind(fields[4]));
    Provenance prov;
    prov.source = UnescapeTsvField(fields[5]);
    try {
      prov.confidence = std::stod(fields[6]);
      prov.timestamp = std::stoll(fields[7]);
    } catch (const std::exception&) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": bad confidence/timestamp");
    }
    kg.AddTriple(UnescapeTsvField(fields[0]), UnescapeTsvField(fields[2]),
                 UnescapeTsvField(fields[3]), subject_kind, object_kind,
                 std::move(prov));
  }
  return kg;
}

Status SaveKg(const KnowledgeGraph& kg, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path);
  out << SerializeKg(kg);
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<KnowledgeGraph> LoadKg(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return DeserializeKg(buf.str());
}

}  // namespace kg::graph
