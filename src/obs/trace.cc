#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>

#include "common/hash.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "obs/json.h"

namespace kg::obs {

namespace {

uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

WallTraceClock::WallTraceClock() : origin_ns_(MonotonicNs()) {}

double WallTraceClock::NowSeconds() {
  return static_cast<double>(MonotonicNs() - origin_ns_) * 1e-9;
}

// ---------------------------------------------------------------------------
// Span

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_), rec_(std::move(other.rec_)) {
  other.tracer_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    rec_ = std::move(other.rec_);
    other.tracer_ = nullptr;
  }
  return *this;
}

Span Span::Child(std::string_view name) {
  if (tracer_ == nullptr) return Span();
  return tracer_->NewSpan(&rec_, name);
}

void Span::SetAttr(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  rec_.attrs.emplace_back(std::string(key), std::string(value));
}

// The numeric overloads return before formatting, so an inert span
// allocates nothing.
void Span::SetAttr(std::string_view key, uint64_t value) {
  if (tracer_ == nullptr) return;
  SetAttr(key, std::string_view(std::to_string(value)));
}

void Span::SetAttr(std::string_view key, double value, int digits) {
  if (tracer_ == nullptr) return;
  SetAttr(key, std::string_view(FormatDouble(value, digits)));
}

void Span::End() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->Finish(std::move(rec_));
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer(uint64_t seed, TraceClock* clock) : seed_(seed) {
  if (clock != nullptr) {
    clock_ = clock;
  } else {
    owned_clock_ = std::make_unique<WallTraceClock>();
    clock_ = owned_clock_.get();
  }
}

Span Tracer::Root(std::string_view name) { return NewSpan(nullptr, name); }

Span Tracer::RootWithParent(uint64_t parent_span_id, std::string_view name) {
#ifdef KG_OBS_NOOP
  (void)parent_span_id;
  (void)name;
  return Span();
#else
  // Anchor the path at the remote parent's id, not at any local state:
  // a replica and a fresh process tracing the same request derive the
  // same path, hence the same span id.
  SpanRecord remote_parent;
  remote_parent.id = parent_span_id;
  remote_parent.path = "~" + HexSpanId(parent_span_id);
  return NewSpan(&remote_parent, name);
#endif
}

Span Tracer::Start(Tracer* tracer, std::string_view name) {
#ifdef KG_OBS_NOOP
  (void)tracer;
  (void)name;
  return Span();
#else
  if (tracer == nullptr) return Span();
  return tracer->Root(name);
#endif
}

Span Tracer::StartWithParent(Tracer* tracer, uint64_t parent_span_id,
                             std::string_view name) {
#ifdef KG_OBS_NOOP
  (void)tracer;
  (void)parent_span_id;
  (void)name;
  return Span();
#else
  if (tracer == nullptr) return Span();
  if (parent_span_id == 0) return tracer->Root(name);
  return tracer->RootWithParent(parent_span_id, name);
#endif
}

Span Tracer::NewSpan(const SpanRecord* parent, std::string_view name) {
#ifdef KG_OBS_NOOP
  (void)parent;
  (void)name;
  return Span();
#else
  Span span;
  span.tracer_ = this;
  SpanRecord& rec = span.rec_;
  rec.name = std::string(name);
  rec.parent_id = parent == nullptr ? 0 : parent->id;
  std::string base = parent == nullptr ? "/" : parent->path + "/";
  base += rec.name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec.seq = next_seq_[base]++;
  }
  rec.path = base + "#" + std::to_string(rec.seq);
  rec.id = Fnv1a64(std::to_string(seed_) + "|" + rec.path);
  rec.start_seconds = clock_->NowSeconds();
  return span;
#endif
}

void Tracer::Finish(SpanRecord rec) {
  rec.end_seconds = clock_->NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  finished_.push_back(std::move(rec));
}

size_t Tracer::finished_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  finished_.clear();
  next_seq_.clear();
}

std::vector<StageRow> Tracer::RollUp(const Tracer* tracer) {
  if (tracer == nullptr) return {};
  struct Acc {
    StageRow row;
    double first_start = 0.0;
    // Integer nanoseconds, so the sum is independent of the order the
    // spans finished in.
    int64_t nanos = 0;
  };
  std::vector<Acc> accs;
  std::unordered_map<std::string, size_t> index;
  {
    std::lock_guard<std::mutex> lock(tracer->mu_);
    for (const SpanRecord& rec : tracer->finished_) {
      std::string stage = rec.name.substr(0, rec.name.rfind('@'));
      auto [it, inserted] = index.emplace(std::move(stage), accs.size());
      if (inserted) accs.push_back(Acc{{it->first}, rec.start_seconds, 0});
      Acc& acc = accs[it->second];
      acc.first_start = std::min(acc.first_start, rec.start_seconds);
      ++acc.row.calls;
      acc.nanos += std::llround((rec.end_seconds - rec.start_seconds) * 1e9);
      for (const auto& [key, value] : rec.attrs) {
        uint64_t items = 0;
        if (key == "items" &&
            std::from_chars(value.data(), value.data() + value.size(), items)
                    .ec == std::errc()) {
          acc.row.items += items;
        }
      }
    }
  }
  std::sort(accs.begin(), accs.end(), [](const Acc& a, const Acc& b) {
    if (a.first_start != b.first_start) return a.first_start < b.first_start;
    return a.row.stage < b.row.stage;
  });
  std::vector<StageRow> rows;
  rows.reserve(accs.size());
  for (Acc& acc : accs) {
    acc.row.seconds = static_cast<double>(acc.nanos) / 1e9;
    rows.push_back(std::move(acc.row));
  }
  return rows;
}

void PrintStageTable(std::ostream& os, const std::vector<StageRow>& rows) {
  TablePrinter table({"stage", "calls", "wall_s", "items", "items/s"});
  for (const StageRow& row : rows) {
    table.AddRow({row.stage, std::to_string(row.calls),
                  FormatDouble(row.seconds, 3),
                  FormatCount(static_cast<int64_t>(row.items)),
                  FormatCount(static_cast<int64_t>(row.ItemsPerSec()))});
  }
  table.Print(os);
}

std::string HexSpanId(uint64_t id) {
  static const char* kDigits = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kDigits[(id >> shift) & 0xF];
  }
  return out;
}

namespace {

void WriteSpan(JsonWriter& w, const SpanRecord& rec,
               const std::unordered_map<uint64_t, std::vector<const SpanRecord*>>&
                   children) {
  w.BeginObject();
  w.Key("name").String(rec.name);
  w.Key("id").String(HexSpanId(rec.id));
  w.Key("seq").UInt(rec.seq);
  if (rec.parent_id != 0) {
    w.Key("parent_id").String(HexSpanId(rec.parent_id));
  }
  w.Key("start_s").Double(rec.start_seconds, 9);
  w.Key("end_s").Double(rec.end_seconds, 9);
  if (!rec.attrs.empty()) {
    w.Key("attrs").BeginObject();
    for (const auto& [key, value] : rec.attrs) {
      w.Key(key).String(value);
    }
    w.EndObject();
  }
  auto it = children.find(rec.id);
  if (it != children.end()) {
    w.Key("children").BeginArray();
    for (const SpanRecord* child : it->second) {
      WriteSpan(w, *child, children);
    }
    w.EndArray();
  }
  w.EndObject();
}

}  // namespace

std::string Tracer::ToJson() const {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = finished_;
  }
  // Completion order is scheduling-dependent; (name, seq, path) order
  // is a pure function of structure, so sort children deterministically
  // (path breaks ties between same-named spans from different parents,
  // e.g. two remote-rooted forests meeting at the root list).
  const auto by_name_seq = [](const SpanRecord* a, const SpanRecord* b) {
    if (a->name != b->name) return a->name < b->name;
    if (a->seq != b->seq) return a->seq < b->seq;
    return a->path < b->path;
  };
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  std::unordered_map<uint64_t, size_t> recorded;
  recorded.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    recorded.emplace(spans[i].id, i);
  }
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& rec : spans) {
    // A span whose parent was recorded by a *remote* tracer (wire trace
    // propagation) has a nonzero parent_id with no local record; render
    // it as a root of its local forest instead of dropping it.
    if (rec.parent_id == 0 || recorded.find(rec.parent_id) == recorded.end()) {
      roots.push_back(&rec);
    } else {
      children[rec.parent_id].push_back(&rec);
    }
  }
  for (auto& [id, kids] : children) {
    std::sort(kids.begin(), kids.end(), by_name_seq);
  }
  std::sort(roots.begin(), roots.end(), by_name_seq);

  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("seed").UInt(seed_);
  w.Key("span_count").UInt(static_cast<uint64_t>(spans.size()));
  w.Key("spans").BeginArray();
  for (const SpanRecord* root : roots) {
    WriteSpan(w, *root, children);
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace kg::obs
