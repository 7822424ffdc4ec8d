#ifndef KGRAPH_OBS_TRACE_H_
#define KGRAPH_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace kg::obs {

/// Clock injected into a Tracer. Production uses WallTraceClock;
/// replay/determinism tests use FixedTraceClock so two runs of the
/// same seeded workload produce byte-identical trace JSON.
class TraceClock {
 public:
  virtual ~TraceClock() = default;
  virtual double NowSeconds() = 0;
};

/// Monotonic wall clock, zeroed at construction.
class WallTraceClock : public TraceClock {
 public:
  WallTraceClock();
  double NowSeconds() override;

 private:
  uint64_t origin_ns_ = 0;
};

/// Returns a programmed value; Advance lets tests script timelines.
/// Thread-safe (C++20 atomic<double>).
class FixedTraceClock : public TraceClock {
 public:
  explicit FixedTraceClock(double now_seconds = 0.0) : now_(now_seconds) {}
  double NowSeconds() override {
    return now_.load(std::memory_order_relaxed);
  }
  void Set(double seconds) { now_.store(seconds, std::memory_order_relaxed); }
  void Advance(double seconds) {
    now_.fetch_add(seconds, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> now_;
};

/// One finished span as recorded by the tracer.
struct SpanRecord {
  uint64_t id = 0;         // Fnv1a64(seed "|" qualified path)
  uint64_t parent_id = 0;  // 0 for roots
  std::string name;
  std::string path;  // qualified: parent.path + "/" + name + "#" + seq
  uint32_t seq = 0;  // per-(parent,name) occurrence index
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  // Insertion-ordered key/value annotations (counts, statuses...).
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// One row of Tracer::RollUp: every finished span of one stage name.
struct StageRow {
  std::string stage;
  size_t calls = 0;
  double seconds = 0.0;  // summed span wall time
  uint64_t items = 0;    // summed "items" attributes
  /// items / seconds, or 0 when no time was recorded.
  double ItemsPerSec() const {
    return seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0;
  }
};

class Tracer;

/// RAII span handle. Default-constructed (or moved-from) spans are
/// inert: every operation is a cheap no-op, so call sites can be
/// written unconditionally against a possibly-null tracer. The span
/// records itself with the tracer when it ends (destructor or End()).
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  ~Span() { End(); }

  /// Starts a child span; inert if this span is inert. Safe to call
  /// concurrently from worker threads sharing a parent — but for
  /// deterministic ids, concurrent same-name siblings must be
  /// disambiguated by the caller (e.g. "chunk@128" with the chunk's
  /// begin index), because sequence numbers are assigned in completion
  /// order otherwise.
  Span Child(std::string_view name);

  void SetAttr(std::string_view key, std::string_view value);
  void SetAttr(std::string_view key, uint64_t value);
  void SetAttr(std::string_view key, double value, int digits = 6);

  /// Finishes the span (idempotent): stamps the end time and hands the
  /// record to the tracer.
  void End();

  bool active() const { return tracer_ != nullptr; }
  uint64_t id() const { return rec_.id; }
  const std::string& path() const { return rec_.path; }

 private:
  friend class Tracer;
  Tracer* tracer_ = nullptr;
  SpanRecord rec_;
};

/// Collects finished spans and exports them as a schema-versioned JSON
/// tree. Span ids are Fnv1a64 over (seed, qualified path) where the
/// qualified path chains "name#seq" segments from the root — a pure
/// function of the trace *structure*, so replaying a seeded workload
/// reproduces identical ids at any thread count. Export sorts children
/// by (name, seq), making the JSON independent of completion order.
class Tracer {
 public:
  /// `clock` may be null (a WallTraceClock is created and owned).
  explicit Tracer(uint64_t seed, TraceClock* clock = nullptr);

  /// Starts a root span.
  Span Root(std::string_view name);

  /// Starts a span whose parent arrived over the wire: `parent_span_id`
  /// is a span id minted by a remote tracer (rpc::TraceContext). The
  /// new span's path is anchored at "~<hex parent id>/<name>", so its
  /// id stays a pure function of (seed, remote parent id, structure) —
  /// same-seed distributed runs reproduce identical ids. When the
  /// parent happens to be recorded by this same tracer (in-process
  /// transport), export nests the span under it; otherwise the span
  /// renders as a root of its local forest.
  Span RootWithParent(uint64_t parent_span_id, std::string_view name);

  /// Null-safe start helper: inert span when `tracer` is null (or the
  /// library is built with KG_OBS_NOOP).
  static Span Start(Tracer* tracer, std::string_view name);

  /// Null-safe RootWithParent. Falls back to a plain root when
  /// `parent_span_id` is zero (no context on the wire).
  static Span StartWithParent(Tracer* tracer, uint64_t parent_span_id,
                              std::string_view name);

  /// {"schema_version":1,"seed":...,"span_count":N,"spans":[...]}
  /// with spans nested under their parents. Unfinished spans are not
  /// included — export after the traced work completes.
  std::string ToJson() const;

  /// Null-safe per-stage summary of the finished spans: one row per span
  /// name, with a trailing "@<id>" dropped so the "chunk@<begin>"
  /// siblings of a sharded loop share one row. A row sums its spans'
  /// wall time and their "items" attributes. Rows are ordered by first
  /// start, ties by name. No rows for a null tracer.
  static std::vector<StageRow> RollUp(const Tracer* tracer);

  size_t finished_spans() const;
  void Clear();
  uint64_t seed() const { return seed_; }

 private:
  friend class Span;
  Span NewSpan(const SpanRecord* parent, std::string_view name);
  void Finish(SpanRecord rec);

  uint64_t seed_;
  TraceClock* clock_;
  std::unique_ptr<TraceClock> owned_clock_;
  mutable std::mutex mu_;
  // Next sequence number per (parent path, name) base path.
  std::unordered_map<std::string, uint32_t> next_seq_;
  std::vector<SpanRecord> finished_;
};

/// "0x%016x" rendering of a span/trace id — the form used in trace
/// JSON and in the remote-parent path anchor.
std::string HexSpanId(uint64_t id);

/// Renders `rows` as "stage | calls | wall_s | items | items/s".
void PrintStageTable(std::ostream& os, const std::vector<StageRow>& rows);

}  // namespace kg::obs

#endif  // KGRAPH_OBS_TRACE_H_
