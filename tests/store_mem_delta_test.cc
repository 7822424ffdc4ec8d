// MemDelta: last-op-wins state per triple, subject/object-major
// iteration order, prefix-probe exactness (TouchesSubject must not match
// name prefixes), borrowed-key probes that agree with owned keys, and
// fold-line trimming.

#include "store/mem_delta.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "graph/knowledge_graph.h"
#include "store/wal.h"

namespace kg::store {
namespace {

using graph::NodeKind;
using graph::Provenance;

Mutation Up(const std::string& s, const std::string& p,
            const std::string& o, NodeKind sk = NodeKind::kEntity,
            NodeKind ok = NodeKind::kEntity) {
  return Mutation::Upsert(s, p, o, sk, ok, Provenance{"test", 1.0, 0});
}

Mutation Rt(const std::string& s, const std::string& p,
            const std::string& o, NodeKind sk = NodeKind::kEntity,
            NodeKind ok = NodeKind::kEntity) {
  return Mutation::Retract(s, p, o, sk, ok);
}

TEST(MemDeltaTest, LastOpWinsPerTriple) {
  MemDelta delta;
  EXPECT_TRUE(delta.empty());
  delta.Apply(Up("a", "p", "b"), 1);
  EXPECT_EQ(delta.Lookup(TripleName::Of(Up("a", "p", "b"))),
            MemDelta::State::kUpserted);
  delta.Apply(Rt("a", "p", "b"), 2);
  EXPECT_EQ(delta.Lookup(TripleName::Of(Up("a", "p", "b"))),
            MemDelta::State::kRetracted);
  delta.Apply(Up("a", "p", "b"), 3);
  EXPECT_EQ(delta.Lookup(TripleName::Of(Up("a", "p", "b"))),
            MemDelta::State::kUpserted);
  EXPECT_EQ(delta.size(), 1u);  // one triple, whatever its history
  delta.ForEach([](const TripleName&, const MemDelta::Entry& e) {
    EXPECT_EQ(e.seq, 3u);  // the last op's sequence
  });
}

TEST(MemDeltaTest, LookupDistinguishesKinds) {
  MemDelta delta;
  delta.Apply(Up("x", "p", "y", NodeKind::kEntity, NodeKind::kText), 1);
  EXPECT_EQ(delta.Lookup(TripleName{NodeKind::kEntity, "x", "p",
                                    NodeKind::kText, "y"}),
            MemDelta::State::kUpserted);
  EXPECT_EQ(delta.Lookup(TripleName{NodeKind::kEntity, "x", "p",
                                    NodeKind::kEntity, "y"}),
            MemDelta::State::kUntouched);
  EXPECT_EQ(delta.Lookup(TripleName{NodeKind::kText, "x", "p",
                                    NodeKind::kText, "y"}),
            MemDelta::State::kUntouched);
}

TEST(MemDeltaTest, TouchProbesAreExactNotPrefixMatches) {
  MemDelta delta;
  delta.Apply(Up("ab", "p", "zz"), 1);
  EXPECT_TRUE(delta.TouchesSubject(NodeKind::kEntity, "ab"));
  EXPECT_FALSE(delta.TouchesSubject(NodeKind::kEntity, "a"));
  EXPECT_FALSE(delta.TouchesSubject(NodeKind::kEntity, "abc"));
  EXPECT_FALSE(delta.TouchesSubject(NodeKind::kText, "ab"));
  EXPECT_TRUE(delta.TouchesObject(NodeKind::kEntity, "zz"));
  EXPECT_FALSE(delta.TouchesObject(NodeKind::kEntity, "z"));
  EXPECT_FALSE(delta.TouchesObject(NodeKind::kEntity, "ab"));
}

TEST(MemDeltaTest, ForEachBySubjectIsOrderedAndScoped) {
  MemDelta delta;
  delta.Apply(Up("s", "q", "o2"), 1);
  delta.Apply(Up("s", "p", "o9"), 2);
  delta.Apply(Rt("s", "p", "o1"), 3);
  delta.Apply(Up("other", "p", "o1"), 4);
  delta.Apply(Up("s", "p", "o5", NodeKind::kEntity, NodeKind::kText), 5);

  std::vector<std::string> seen;
  delta.ForEachBySubject(
      NodeKind::kEntity, "s",
      [&](const TripleName& t, const MemDelta::Entry& e) {
        seen.push_back(t.predicate + "/" + t.object + "/" +
                       (e.state == MemDelta::State::kUpserted ? "U" : "R"));
      });
  // (predicate, object_kind, object) order; "other"'s entry never shows.
  const std::vector<std::string> expected = {
      "p/o1/R",  // p, kEntity, o1
      "p/o9/U",  // p, kEntity, o9
      "p/o5/U",  // p, kText, o5 (kText sorts after kEntity)
      "q/o2/U",
  };
  EXPECT_EQ(seen, expected);
}

TEST(MemDeltaTest, ForEachByObjectReconstructsFullTripleNames) {
  MemDelta delta;
  delta.Apply(Up("s1", "p", "hub"), 1);
  delta.Apply(Rt("s2", "q", "hub"), 2);
  delta.Apply(Up("s3", "p", "elsewhere"), 3);

  std::vector<TripleName> seen;
  delta.ForEachByObject(NodeKind::kEntity, "hub",
                        [&](const TripleName& t, const MemDelta::Entry&) {
                          seen.push_back(t);
                        });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0],
            (TripleName{NodeKind::kEntity, "s1", "p", NodeKind::kEntity,
                        "hub"}));
  EXPECT_EQ(seen[1],
            (TripleName{NodeKind::kEntity, "s2", "q", NodeKind::kEntity,
                        "hub"}));
}

TEST(MemDeltaTest, TrimThroughDropsOnlyFoldedEntries) {
  MemDelta delta;
  delta.Apply(Up("a", "p", "b"), 1);
  delta.Apply(Rt("c", "p", "d"), 2);
  delta.Apply(Up("e", "p", "f"), 3);
  // Triple (a,p,b) mutated again *after* the fold line: its entry's seq
  // moves to 4, so it must survive a TrimThrough(3).
  delta.Apply(Rt("a", "p", "b"), 4);

  delta.TrimThrough(3);
  EXPECT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta.Lookup(TripleName::Of(Up("a", "p", "b"))),
            MemDelta::State::kRetracted);
  EXPECT_EQ(delta.Lookup(TripleName::Of(Up("c", "p", "d"))),
            MemDelta::State::kUntouched);
  EXPECT_EQ(delta.Lookup(TripleName::Of(Up("e", "p", "f"))),
            MemDelta::State::kUntouched);
  // The object-major index trims in lockstep.
  bool found = false;
  delta.ForEachByObject(NodeKind::kEntity, "f",
                        [&](const TripleName&, const MemDelta::Entry&) {
                          found = true;
                        });
  EXPECT_FALSE(found);
  delta.TrimThrough(4);
  EXPECT_TRUE(delta.empty());
}

TEST(MemDeltaTest, HostileNamesWithTabsAndEmptiesWork) {
  MemDelta delta;
  delta.Apply(Up("", "", "", NodeKind::kText, NodeKind::kClass), 1);
  delta.Apply(Up("tab\there", "p\tq", "line\nbreak"), 2);
  EXPECT_TRUE(delta.TouchesSubject(NodeKind::kText, ""));
  EXPECT_TRUE(delta.TouchesSubject(NodeKind::kEntity, "tab\there"));
  EXPECT_EQ(delta.Lookup(TripleName{NodeKind::kEntity, "tab\there", "p\tq",
                                    NodeKind::kEntity, "line\nbreak"}),
            MemDelta::State::kUpserted);
  EXPECT_EQ(delta.size(), 2u);
}


/// Names that stress the borrowed-key order: empty, embedded tab and NUL
/// bytes, and prefixes of one another.
const std::vector<std::string>& HostileNames() {
  static const std::vector<std::string> kNames = {
      "",  "a",        std::string("a\0", 2), std::string("a\0b", 3),
      "a\t", "a\tb",   "ab",                   std::string("\0", 1),
      "\t",
  };
  return kNames;
}

/// Every (subject, predicate, object) over the hostile names, with
/// seeded kinds and states — one delta holding every order hazard.
MemDelta HostileDelta() {
  MemDelta delta;
  const auto& names = HostileNames();
  uint64_t seq = 0;
  for (size_t s = 0; s < names.size(); ++s) {
    for (size_t p = 0; p < names.size(); p += 2) {
      for (size_t o = 0; o < names.size(); o += 3) {
        const NodeKind sk = (s + o) % 3 == 0 ? NodeKind::kText
                                             : NodeKind::kEntity;
        const NodeKind ok = (s * p) % 2 == 0 ? NodeKind::kEntity
                                             : NodeKind::kClass;
        ++seq;
        delta.Apply(seq % 3 == 0 ? Rt(names[s], names[p], names[o], sk, ok)
                                 : Up(names[s], names[p], names[o], sk, ok),
                    seq);
      }
    }
  }
  return delta;
}

TEST(MemDeltaTest, BorrowedKeyProbesAgreeWithOwnedKeys) {
  const MemDelta delta = HostileDelta();
  // Owned keys: the stored TripleNames and their states, as ForEach
  // hands them out.
  std::vector<std::pair<TripleName, MemDelta::State>> owned;
  delta.ForEach([&](const TripleName& t, const MemDelta::Entry& e) {
    owned.emplace_back(t, e.state);
  });
  const auto owned_state = [&](const TripleName& t) {
    for (const auto& [name, state] : owned) {
      if (name == t) return state;
    }
    return MemDelta::State::kUntouched;
  };
  const auto& names = HostileNames();
  for (const NodeKind sk : {NodeKind::kEntity, NodeKind::kText}) {
    for (const std::string& s : names) {
      bool subject_owned = false, object_owned = false;
      for (const auto& [t, state] : owned) {
        subject_owned |= t.subject_kind == sk && t.subject == s;
        object_owned |= t.object_kind == sk && t.object == s;
      }
      const std::string s_copy = s;
      EXPECT_EQ(delta.TouchesSubject(sk, s_copy), subject_owned);
      EXPECT_EQ(delta.TouchesObject(sk, s_copy), object_owned);
      for (const std::string& p : names) {
        for (const std::string& o : names) {
          for (const NodeKind ok : {NodeKind::kEntity, NodeKind::kClass}) {
            const TripleName key{sk, s, p, ok, o};
            const std::string p_copy = p, o_copy = o;
            EXPECT_EQ(delta.Lookup(TripleView(sk, s_copy, p_copy, ok, o_copy)),
                      owned_state(key));
            EXPECT_EQ(delta.Lookup(key), owned_state(key));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace kg::store
