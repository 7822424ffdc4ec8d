#include "cluster/member.h"

#include <filesystem>
#include <string_view>
#include <utility>

#include "obs/trace.h"
#include "store/wal.h"

namespace kg::cluster {
namespace {

/// Runs `read` (one of `member`'s store reads) as a `name` span nested
/// under the router's member span (`parent_span_id`, 0 = untraced),
/// tagged with the serving member and its epoch tag — or, while the
/// member is killed, refuses with kUnavailable and tags the refusal.
template <typename Read>
auto TracedRead(const ShardMember& member, obs::Tracer* tracer,
                uint64_t parent_span_id, std::string_view name,
                const Read& read) -> decltype(read()) {
  obs::Span span = obs::Tracer::StartWithParent(tracer, parent_span_id, name);
  auto result = member.alive() ? read()
                               : decltype(read())(Status::Unavailable(
                                     member.label() + " is down"));
  if (span.active()) {
    span.SetAttr("member", member.label());
    if (result.ok()) {
      span.SetAttr("epoch", result->epoch);
    } else {
      span.SetAttr("error", result.status().message());
    }
  }
  return result;
}

}  // namespace

// ---- ShardMember ---------------------------------------------------------

ShardMember::ShardMember(std::string label, const ClusterOptions& options)
    : options_(options), label_(std::move(label)) {}

Status ShardMember::OpenStore(const graph::KnowledgeGraph& base,
                              const std::string& wal_path) {
  store::StoreOptions sopts;
  sopts.wal_path = wal_path;
  sopts.registry = options_.registry;
  sopts.time_stages = options_.time_stages;
  KG_ASSIGN_OR_RETURN(store_, store::VersionedKgStore::Open(base, sopts));
  return Status::OK();
}

Result<serve::EpochTaggedResult> ShardMember::ExecuteTraced(
    const serve::Query& query, uint64_t parent_span_id) const {
  return TracedRead(*this, options_.tracer, parent_span_id, "store.execute",
                    [&] { return store_->TryExecuteTagged(query); });
}

Result<store::EpochTaggedAdjacency> ShardMember::OutEntitiesTraced(
    std::span<const serve::NodeKey> nodes, uint64_t parent_span_id) const {
  return TracedRead(*this, options_.tracer, parent_span_id,
                    "store.out_entities",
                    [&] { return store_->TryOutEntitiesTagged(nodes); });
}

Result<store::EpochTaggedScores> ShardMember::RingScoresTraced(
    const serve::NodeKey& center, std::span<const serve::NodeKey> ring,
    std::span<const serve::RingHop> hops, size_t k,
    uint64_t parent_span_id) const {
  return TracedRead(*this, options_.tracer, parent_span_id,
                    "store.ring_scores", [&] {
                      return store_->TryRingScoresTagged(center, ring, hops,
                                                         k);
                    });
}

// ---- PrimaryMember -------------------------------------------------------

PrimaryMember::PrimaryMember(size_t shard, const ClusterOptions& options)
    : ShardMember("s" + std::to_string(shard) + ".primary", options) {}

Result<std::unique_ptr<PrimaryMember>> PrimaryMember::Create(
    size_t shard, const graph::KnowledgeGraph& base,
    const ClusterOptions& options) {
  auto member =
      std::unique_ptr<PrimaryMember>(new PrimaryMember(shard, options));
  KG_RETURN_IF_ERROR(member->OpenStore(base, /*wal_path=*/""));
  {
    std::lock_guard<std::mutex> lock(member->server_mu_);
    KG_RETURN_IF_ERROR(member->StartServerLocked());
  }
  return member;
}

PrimaryMember::~PrimaryMember() { Kill(); }

Status PrimaryMember::StartServerLocked() {
  auto listener = std::make_unique<rpc::InMemoryTransportServer>();
  loopback_ = listener.get();
  rpc::RpcServerOptions sopts;
  sopts.worker_threads = options_.server_worker_threads;
  sopts.registry = options_.registry;
  sopts.tracer = options_.tracer;
  sopts.slow_ring = options_.slow_ring;
  sopts.wal_source = &log_;
  sopts.wal_heartbeat_interval_ms = options_.heartbeat_interval_ms;
  server_ = std::make_unique<rpc::RpcServer>(
      rpc::StoreHandler(store_.get()), std::move(listener), sopts);
  const Status started = server_->Start();
  if (!started.ok()) {
    server_.reset();
    loopback_ = nullptr;
  }
  return started;
}

Status PrimaryMember::ApplyBatch(std::span<const store::Mutation> mutations) {
  if (killed_.load(std::memory_order_acquire)) {
    return Status::Unavailable(label_ + " is down");
  }
  if (mutations.empty()) return Status::OK();
  // Encoded first: a commit too large to ship in one kWalBatch frame is
  // refused before the store or the log moves.
  KG_ASSIGN_OR_RETURN(const std::string commit,
                      store::EncodeCommit(mutations));
  KG_RETURN_IF_ERROR(store_->ApplyBatch(mutations));
  log_.Append(commit);
  store_->set_applied_watermark(log_.EndOffset());
  return Status::OK();
}

rpc::TransportFactory PrimaryMember::DialFactory() {
  return [this]() -> Result<std::unique_ptr<rpc::ITransport>> {
    std::lock_guard<std::mutex> lock(server_mu_);
    if (server_ == nullptr || killed_.load(std::memory_order_acquire)) {
      return Status::Unavailable("primary shipping endpoint down");
    }
    return loopback_->Connect();
  };
}

void PrimaryMember::Kill() {
  killed_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(server_mu_);
  if (server_ != nullptr) {
    server_->Stop();
    server_.reset();
    loopback_ = nullptr;
  }
}

Status PrimaryMember::Revive() {
  std::lock_guard<std::mutex> lock(server_mu_);
  if (server_ == nullptr) {
    KG_RETURN_IF_ERROR(StartServerLocked());
  }
  killed_.store(false, std::memory_order_release);
  return Status::OK();
}

// ---- ReplicaMember -------------------------------------------------------

ReplicaMember::ReplicaMember(size_t shard, size_t index,
                             const ClusterOptions& options)
    : ShardMember("s" + std::to_string(shard) + ".replica" +
                      std::to_string(index),
                  options) {}

Result<std::unique_ptr<ReplicaMember>> ReplicaMember::Create(
    size_t shard, size_t index, const graph::KnowledgeGraph& base,
    rpc::TransportFactory dial, const ClusterOptions& options) {
  auto member = std::unique_ptr<ReplicaMember>(
      new ReplicaMember(shard, index, options));

  // Recover the resume point *before* the store truncates a torn tail:
  // the verified prefix of the local WAL is exactly the primary-log
  // prefix this replica had applied, and its chain resumes from there.
  std::string wal_path;
  uint32_t initial_chain = 0;
  uint64_t resume_offset = 0;
  if (!options.wal_dir.empty()) {
    wal_path = options.wal_dir + "/s" + std::to_string(shard) + "r" +
               std::to_string(index) + ".wal";
    std::error_code ec;
    if (std::filesystem::exists(wal_path, ec)) {
      KG_ASSIGN_OR_RETURN(const std::string bytes,
                          store::ReadWalFile(wal_path));
      KG_ASSIGN_OR_RETURN(const store::WalReplay replay,
                          store::ReplayWalBuffer(bytes));
      resume_offset = replay.valid_bytes;
      initial_chain = ShardLog::FoldChain(
          0, std::string_view(bytes).substr(0, replay.valid_bytes),
          replay.record_offsets);
    }
  }

  KG_RETURN_IF_ERROR(member->OpenStore(base, wal_path));
  member->store_->set_applied_watermark(resume_offset);

  member->receiver_ = std::make_unique<WalReceiver>(
      std::move(dial), member->store_.get(), initial_chain, member->label_,
      options.receiver, options.registry);
  member->receiver_->Start();
  return member;
}

ReplicaMember::~ReplicaMember() {
  if (receiver_ != nullptr) receiver_->Stop();
}

void ReplicaMember::Kill() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  killed_.store(true, std::memory_order_release);
  receiver_->Stop();
}

void ReplicaMember::Revive() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  killed_.store(false, std::memory_order_release);
  receiver_->Start();
}

void ReplicaMember::EnsureLink() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (killed_.load(std::memory_order_acquire)) return;
  if (!receiver_->running()) receiver_->Start();
}

uint64_t ReplicaMember::lag_bytes() const {
  const uint64_t seen = receiver_->last_seen_log_end();
  const uint64_t applied = store_->applied_watermark();
  return seen > applied ? seen - applied : 0;
}

}  // namespace kg::cluster
