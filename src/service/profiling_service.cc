#include "service/profiling_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gordian {

ProfilingService::ProfilingService(ServiceOptions options)
    : owned_catalog_(options.catalog == nullptr ? new KeyCatalog() : nullptr),
      catalog_(options.catalog == nullptr ? owned_catalog_.get()
                                          : options.catalog),
      tree_cache_(options.tree_cache_bytes > 0
                      ? std::make_unique<TreeArtifactCache>(
                            options.tree_cache_bytes)
                      : nullptr),
      catalog_dir_(options.catalog_dir),
      flush_every_puts_(options.flush_every_puts),
      scheduler_(options.num_threads) {
  ingest_spill_.memory_budget_bytes = options.spill_memory_budget;
  ingest_spill_.spill_dir = options.spill_dir;
  ingest_spill_.fs = options.fs;
  if (ingest_spill_.enabled()) {
    // The spill directory is scratch space; create it up front rather than
    // having CSV jobs race to (CreateDir succeeds when it exists).
    FileSystem* fs = options.fs != nullptr ? options.fs : DefaultFileSystem();
    (void)fs->CreateDir(ingest_spill_.spill_dir);
  }
  if (!options.table_artifact_dir.empty()) {
    TableArtifactStore::Options store_options;
    store_options.fs = options.fs;
    store_options.metrics = &metrics_;
    artifact_store_ = std::make_unique<TableArtifactStore>(
        options.table_artifact_dir, store_options);
    if (!artifact_store_->Init().ok()) {
      // Unusable root: run without table persistence, like an unusable
      // catalog directory runs without result persistence.
      artifact_store_.reset();
    }
  }
  if (!options.catalog_dir.empty()) {
    CatalogStore::Options store_options;
    store_options.mode = CatalogStore::Mode::kReadWrite;
    store_options.fs = options.fs;
    store_options.metrics = &metrics_;
    catalog_store_ = std::make_unique<CatalogStore>(
        options.catalog_dir, catalog_, store_options);
    Status open_status = catalog_store_->Open(&recovery_report_);
    persistence_status_ = open_status;
    if (!open_status.ok() && !open_status.IsPartial()) {
      // Unusable directory (most often: another writer holds the lease).
      // The service still works, just without durability; callers that
      // need the guarantee check persistence_status().
      catalog_store_.reset();
    } else if (flush_every_puts_ > 0) {
      flusher_ = std::thread([this] { FlusherMain(); });
    }
  }
}

ProfilingService::~ProfilingService() {
  // Drain jobs first: their bodies are what put entries into the catalog,
  // and the final flush below must see all of them.
  scheduler_.WaitAll();
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      stop_flusher_ = true;
    }
    flush_cv_.notify_one();
    flusher_.join();
  }
  if (catalog_store_ != nullptr) (void)FlushCatalog();
}

Status ProfilingService::persistence_status() const {
  std::lock_guard<std::mutex> lock(flush_mu_);
  return persistence_status_;
}

Status ProfilingService::FlushCatalog() {
  if (catalog_store_ == nullptr) return Status::OK();
  Status s = catalog_store_->Flush(nullptr);
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(flush_mu_);
    persistence_status_ = s;
  }
  return s;
}

void ProfilingService::NotePut() {
  if (catalog_store_ == nullptr || flush_every_puts_ <= 0) return;
  bool wake;
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    wake = ++unflushed_puts_ >= flush_every_puts_;
  }
  if (wake) flush_cv_.notify_one();
}

void ProfilingService::FlusherMain() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  for (;;) {
    flush_cv_.wait(lock, [this] {
      return stop_flusher_ || unflushed_puts_ >= flush_every_puts_;
    });
    if (stop_flusher_) return;  // the destructor runs the final flush
    unflushed_puts_ = 0;
    lock.unlock();
    (void)FlushCatalog();
    lock.lock();
  }
}

GordianOptions ProfilingService::EffectiveOptions(
    const ProfileJobOptions& options, const JobContext& ctx) {
  GordianOptions g = options.gordian;
  g.cancel_flag = ctx.cancel_flag;
  if (options.timeout_seconds > 0) {
    g.time_budget_seconds =
        g.time_budget_seconds > 0
            ? std::min(g.time_budget_seconds, options.timeout_seconds)
            : options.timeout_seconds;
  }
  return g;
}

JobId ProfilingService::SubmitTable(const std::string& name,
                                    const Table* table,
                                    const ProfileJobOptions& options) {
  metrics_.OnSubmitted();
  auto rec = std::make_shared<Record>();
  rec->name = name;
  rec->table = table;

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(table);
    if (it != inflight_.end()) {
      // Coalesce onto a live job for the same table; a stale entry (its job
      // already terminal) is dropped and this submission runs fresh.
      if (!IsTerminal(scheduler_.Poll(it->second).state)) {
        rec->alias_of = it->second;
        JobId id = next_alias_id_--;
        records_.emplace(id, std::move(rec));
        metrics_.OnCoalesced();
        return id;
      }
      inflight_.erase(it);
    }
  }

  Stopwatch submit_watch;
  JobId id = scheduler_.Submit(
      [this, rec, options, submit_watch](const JobContext& ctx) {
        try {
          RunTableJob(rec.get(), options, ctx);
        } catch (...) {
          metrics_.OnFailed();
          metrics_.OnJobFinished(submit_watch.ElapsedSeconds());
          throw;  // the scheduler records the message and marks kFailed
        }
        if (ctx.Cancelled()) {
          metrics_.OnCancelled();
        } else {
          metrics_.OnCompleted();
        }
        metrics_.OnJobFinished(submit_watch.ElapsedSeconds());
      },
      options.priority);

  {
    std::lock_guard<std::mutex> lock(mu_);
    records_.emplace(id, rec);
    // The job may already have finished on a fast worker; registering it
    // anyway is harmless because lookups validate liveness (above).
    inflight_[table] = id;
  }
  return id;
}

JobId ProfilingService::SubmitCsv(const std::string& name,
                                  const std::string& path,
                                  const CsvOptions& csv_options,
                                  const ProfileJobOptions& options) {
  metrics_.OnSubmitted();
  auto rec = std::make_shared<Record>();
  rec->name = name;

  Stopwatch submit_watch;
  JobId id = scheduler_.Submit(
      [this, rec, path, csv_options, options,
       submit_watch](const JobContext& ctx) {
        try {
          RunCsvJob(rec.get(), path, csv_options, options, ctx);
        } catch (...) {
          metrics_.OnFailed();
          metrics_.OnJobFinished(submit_watch.ElapsedSeconds());
          throw;
        }
        if (ctx.Cancelled()) {
          metrics_.OnCancelled();
        } else {
          metrics_.OnCompleted();
        }
        metrics_.OnJobFinished(submit_watch.ElapsedSeconds());
      },
      options.priority);

  std::lock_guard<std::mutex> lock(mu_);
  records_.emplace(id, std::move(rec));
  return id;
}

void ProfilingService::RunTableJob(Record* rec,
                                   const ProfileJobOptions& options,
                                   const JobContext& ctx) {
  rec->started = true;
  const Table& table = *rec->table;
  rec->fingerprint = TableFingerprint(table);
  if (options.use_catalog) {
    CatalogEntry entry;
    if (catalog_->Lookup(rec->fingerprint, &entry)) {
      rec->cache_hit = true;
      rec->result = std::move(entry.result);
      metrics_.OnCacheHit();
      return;
    }
    metrics_.OnCacheMiss();
  }
  // Discovery through the staged pipeline, reusing a cached prefix-tree
  // artifact when one matches this job's table + tree-shape options.
  TreeArtifactCache* cache =
      options.use_tree_cache ? tree_cache_.get() : nullptr;
  std::vector<StageMetric> stage_metrics;
  rec->result =
      ProfileWithTreeCache(table, EffectiveOptions(options, ctx),
                           rec->fingerprint, cache, &rec->tree_cache_hit,
                           &stage_metrics);
  if (cache != nullptr) {
    if (rec->tree_cache_hit) {
      metrics_.OnTreeCacheHit();
    } else {
      metrics_.OnTreeCacheMiss();
      if (rec->result.stats.freeze_seconds > 0 ||
          rec->result.stats.frozen_tree_bytes > 0) {
        metrics_.OnTreeFrozen(rec->result.stats.freeze_seconds,
                              rec->result.stats.frozen_tree_bytes,
                              rec->result.stats.base_tree_nodes);
      }
    }
  }
  metrics_.OnStageMetrics(stage_metrics);
  // Incomplete results (budget, timeout, cancellation) certify nothing and
  // must not poison the catalog; Put would refuse them anyway.
  if (options.use_catalog && !rec->result.incomplete) {
    if (catalog_->Put(rec->fingerprint, rec->name, table.num_columns(),
                      rec->result)) {
      NotePut();
    }
    // Persist the table itself alongside its result, so a later process
    // can reload it by fingerprint without the original source. Failures
    // are counted (artifact_put_errors) but don't fail the job — the
    // discovery result stands on its own.
    if (artifact_store_ != nullptr) {
      (void)artifact_store_->Put(rec->fingerprint, table);
    }
  }
}

void ProfilingService::RunCsvJob(Record* rec, const std::string& path,
                                 const CsvOptions& csv_options,
                                 const ProfileJobOptions& options,
                                 const JobContext& ctx) {
  rec->started = true;
  KeyDiscoveryResult result;
  IngestStats ingest;
  Status s =
      ProfileCsvFile(path, csv_options, EffectiveOptions(options, ctx),
                     ingest_spill_, &result, &ingest);
  metrics_.OnIngest(ingest.batches, ingest.rows, ingest.bytes);
  if (!s.ok()) throw std::runtime_error(s.ToString());
  rec->result = std::move(result);
}

bool ProfilingService::Cancel(JobId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(id);
    if (it == records_.end() || it->second->alias_of != 0) return false;
  }
  bool before_running = false;
  if (!scheduler_.Cancel(id, &before_running)) return false;
  if (before_running) {
    // The body never ran, so its completion hooks never will; account for
    // the cancellation here.
    metrics_.OnCancelled();
    metrics_.OnJobFinished(scheduler_.Poll(id).latency_seconds);
  }
  return true;
}

JobInfo ProfilingService::Poll(JobId id) const {
  JobId target = id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(id);
    if (it == records_.end()) return JobInfo{};
    if (it->second->alias_of != 0) target = it->second->alias_of;
  }
  return scheduler_.Poll(target);
}

ProfileOutcome ProfilingService::Wait(JobId id) {
  std::shared_ptr<Record> rec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(id);
    if (it == records_.end()) return ProfileOutcome{};
    rec = it->second;
  }
  if (rec->alias_of != 0) {
    ProfileOutcome out = Wait(rec->alias_of);
    out.coalesced = true;
    out.table_name = rec->name;
    return out;
  }
  ProfileOutcome out;
  out.info = scheduler_.Wait(id);
  out.cache_hit = rec->cache_hit;
  out.tree_cache_hit = rec->tree_cache_hit;
  out.fingerprint = rec->fingerprint;
  out.table_name = rec->name;
  out.result = rec->result;
  if (out.info.state == JobState::kCancelled && !rec->started) {
    // Cancelled while still queued: discovery never ran, so the default
    // result must say so rather than masquerade as "no keys found".
    out.result.incomplete = true;
    out.result.incomplete_reason = AbortReason::kCancelled;
  }
  return out;
}

void ProfilingService::WaitAll() { scheduler_.WaitAll(); }

Status ProfilingService::RegisterAppendable(const std::string& name,
                                            const Table& table,
                                            const GordianOptions& options,
                                            uint64_t* fingerprint) {
  auto chain = std::make_shared<Appendable>();
  chain->name = name;
  Status s = IncrementalProfiler::Begin(table, options, &chain->profiler);
  if (!s.ok()) return s;
  const uint64_t fp = chain->profiler.fingerprint();
  const KeyDiscoveryResult& result = chain->profiler.report();
  if (!result.incomplete &&
      catalog_->Put(fp, name, table.num_columns(), result)) {
    NotePut();
  }
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    appendables_[fp] = std::move(chain);
  }
  if (fingerprint != nullptr) *fingerprint = fp;
  return Status::OK();
}

Status ProfilingService::AppendAndReprofile(uint64_t fingerprint,
                                            const RowBatch& batch,
                                            AppendOutcome* out) {
  std::shared_ptr<Appendable> chain;
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    auto it = appendables_.find(fingerprint);
    if (it == appendables_.end()) {
      return Status::NotFound(
          "no appendable chain is registered under this fingerprint");
    }
    chain = it->second;
  }
  std::lock_guard<std::mutex> chain_lock(chain->chain_mu);
  IncrementalProfiler& profiler = chain->profiler;
  if (profiler.fingerprint() != fingerprint) {
    // A concurrent append advanced the chain between our registry lookup
    // and taking the chain lock; callers must pass the handle the previous
    // call returned.
    return Status::InvalidArgument(
        "stale append handle: the chain has advanced past this fingerprint");
  }
  const int64_t old_rows = profiler.num_rows();
  const bool tree_absorbed = profiler.has_tree();
  Status s = profiler.Append(batch);
  if (!s.ok()) return s;
  const uint64_t new_fp = profiler.fingerprint();
  const KeyDiscoveryResult& result = profiler.report();

  if (!result.incomplete &&
      catalog_->Put(new_fp, chain->name, profiler.state().num_columns(),
                    result)) {
    NotePut();
  }
  metrics_.OnAppend(profiler.num_rows() - old_rows, tree_absorbed,
                    result.stats.warm_start_prunes,
                    result.stats.freeze_seconds);

  {
    std::lock_guard<std::mutex> lock(append_mu_);
    appendables_.erase(fingerprint);
    appendables_[new_fp] = chain;
  }

  if (out != nullptr) {
    out->fingerprint = new_fp;
    out->tree_absorbed = tree_absorbed;
    out->refreeze_seconds = result.stats.freeze_seconds;
    out->result = result;
  }
  return Status::OK();
}

ServiceMetrics::Snapshot ProfilingService::Metrics() const {
  ServiceMetrics::Snapshot s = metrics_.Read();
  s.queue_depth = scheduler_.queue_depth();
  s.running_jobs = scheduler_.running_jobs();
  return s;
}

}  // namespace gordian
