#include "perfbench/src/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/model.h"
#include "src/avq/block_decoder.h"
#include "src/avq/decode_kernel.h"
#include "src/db/database.h"
#include "src/db/table_io.h"
#include "src/obs/metric_names.h"
#include "src/obs/metrics.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/storage/block_device.h"
#include "src/storage/decoded_block_cache.h"

namespace perfbench {
namespace {

using avqdb::BlockId;
using avqdb::Database;
using avqdb::DecodedBlockCache;
using avqdb::FileBlockDevice;
using avqdb::QueryStats;
using avqdb::Status;
using avqdb::Table;
using avqdb::WriteAheadTable;
namespace obs = avqdb::obs;
namespace server = avqdb::server;

constexpr char kTable[] = "t";
constexpr size_t kBlockSize = 8192;
// Set-up and recovery are repeated in every run and reported as medians:
// single timings of either move by 10-20% from run to run on a shared
// 4-core host, whose slow stretches can last longer than a few seconds.
// So in plain runs without concurrent writes the workload's timed
// recoveries are spread over the run, one after each of as many equal
// slices of the load phase (the readers keep their connections and their
// place in the request pool, and wait while a recovery runs), and qps and
// rows_per_s are the medians of the slices' rates: a slow stretch shorter
// than half the run then moves none of them. Elsewhere the recoveries
// follow the load phase.
constexpr int kSetupRepeats = 7;

// MUTATE batches per run at the default 200k tuples, split over two
// writer connections: enough for a p99 with ten samples beyond it, and
// the same WAL on every run. Smaller relations get proportionally fewer.
constexpr size_t kWriteBatches = 1000;
constexpr size_t kDefaultTuples = 200000;
// Admission control: two execution slots, and a queue deeper than the
// connection count so nothing is shed.
constexpr size_t kAdmissionSlots = 2;
constexpr size_t kAdmissionQueue = 64;
constexpr size_t kServerWorkers = 4;
// Blocks per replayed request whose read (t1) and decode (t2) are timed.
constexpr size_t kTimedBlocksPerRequest = 16;

struct Workload {
  const char* name;
  Relation relation;
  // Share of --tuples the relation holds.
  double size_share;
  size_t readers;
  size_t pool;    // read requests generated (cycled when exhausted)
  size_t replay;  // requests of the pool replayed by the traced run,
  size_t replay_stride;  // taken every replay_stride-th from the start
  // Writes run beside the reads (else after them, as a write tail).
  bool concurrent_writes;
  size_t max_batch_ops;  // MUTATE batches carry 1..max_batch_ops ops
  // Timed recoveries per run: about 10 s of them at the default size.
  size_t recoveries;
  const char* why;
};

constexpr Workload kWorkloads[] = {
    {"lookup", Relation::kServed5, 1.0, 4, 20000, 400, 1, false, 1, 8,
     "per-request work dominates: wire, session, admission queueing, "
     "planning, index descent, bounded cursor walks and decoded-cache hits"},
    // Half the tuples: a full scan of the 16-attribute relation costs
    // tens of milliseconds, and the run needs 1000 requests for a p99.
    // Its decoded size still exceeds the cache budget more than 4x.
    // The replay's stride of 3 visits every attribute and selectivity
    // stratum of the balanced pool (see MakeScanPool).
    {"scan", Relation::kPaper16, 0.5, 2, 4000, 48, 3, false, 1, 16,
     "per-block work dominates: wide-tuple decode, filtering, "
     "materialization and streaming thousands of rows; larger than the "
     "cache"},
    {"mixed_rw", Relation::kServed5, 1.0, 1, 4000, 200, 1, true, 8, 8,
     "the durable write path beside snapshot reads: group commit, fsync, "
     "background apply, recovery replay and narrow-tuple decode"},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---- registry access (counts and sum ÷ count only) ----

obs::Histogram* Hist(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(name);
}
obs::Counter* Count(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}
obs::Gauge* Level(const char* name) {
  return obs::MetricsRegistry::Global().GetGauge(name);
}

struct HistMark {
  uint64_t count;
  uint64_t sum;
};
HistMark Mark(const char* name) {
  obs::Histogram* h = Hist(name);
  return HistMark{h->count(), h->sum()};
}
double MeanSince(const char* name, HistMark mark) {
  obs::Histogram* h = Hist(name);
  const uint64_t n = h->count() - mark.count;
  return n == 0 ? 0.0 : static_cast<double>(h->sum() - mark.sum) / n;
}
uint64_t CountSince(const char* name, HistMark mark) {
  return Hist(name)->count() - mark.count;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

bool Failed(const Status& status, const char* what) {
  if (status.ok()) return false;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  return true;
}

// ---- the served database ----

struct Served {
  // Declaration order is teardown order reversed: the server stops
  // first, then the database (draining its applier into the WAL device),
  // then the devices and the cache the table points at.
  std::unique_ptr<DecodedBlockCache> cache;
  std::unique_ptr<FileBlockDevice> wal_device;
  std::unique_ptr<Database> db;
  std::unique_ptr<server::Server> server;
  Table* table = nullptr;
  double bulkload_s = 0;

  void Stop() {
    if (server != nullptr) server->Shutdown();
    server.reset();
    db.reset();
    wal_device.reset();
    cache.reset();
  }
};

std::string BasePath(const std::string& dir) { return dir + "/base.avqt"; }
std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }
std::string FixtureWalPath(const std::string& dir) {
  return dir + "/recovery.log";
}

Status AttachWal(const std::string& dir, Served* s) {
  auto device = FileBlockDevice::Create(WalPath(dir), kBlockSize);
  if (!device.ok()) return device.status();
  s->wal_device = std::move(device).value();
  return s->db->EnableWriteAhead(kTable, avqdb::WriteAheadTableOptions{},
                                 s->wal_device.get());
}

// BulkLoad + index builds + base-image save + WAL + server start; the
// timed part of set-up. Input generation happens before. With the WAL
// attached every read goes through the snapshot read path
// (WriteAheadTable::SnapshotSelect), as on a server started with --ingest.
bool SetUp(const Inputs& in, uint64_t cache_budget, const std::string& dir,
           Served* s, double* setup_s) {
  std::vector<OrdinalTuple> tuples = in.tuples;  // BulkLoad consumes it
  const auto start = Clock::now();
  // One shard: a decoded 5-attribute block is ~190 KB, so the default 8
  // shards would give each shard room for about two blocks, and which
  // blocks share a shard hashes the table's heap address, so the hit
  // rate (and lookup qps) would change from process to process.
  s->cache = std::make_unique<DecodedBlockCache>(cache_budget, 1);
  s->db = std::make_unique<Database>(kBlockSize);
  auto table = s->db->CreateTable(kTable, in.schema, avqdb::TableKind::kAvq);
  if (Failed(table.status(), "create table")) return false;
  s->table = *table;
  const auto load_start = Clock::now();
  if (Failed(s->table->BulkLoad(std::move(tuples)), "bulk load")) return false;
  s->bulkload_s = SecondsSince(load_start);
  for (size_t attr : in.secondary_attrs) {
    if (Failed(s->table->CreateSecondaryIndex(attr), "secondary index")) {
      return false;
    }
  }
  s->table->SetDecodedBlockCache(s->cache.get());
  if (Failed(avqdb::SaveTable(*s->table, BasePath(dir)), "save base image")) {
    return false;
  }
  if (Failed(AttachWal(dir, s), "attach WAL")) return false;
  s->db->EnableAdmissionControl(
      avqdb::AdmissionOptions{kAdmissionSlots, kAdmissionQueue});
  server::ServerOptions options;
  options.num_workers = kServerWorkers;
  s->server = std::make_unique<server::Server>(s->db.get(), options);
  if (Failed(s->server->Start(), "server start")) return false;
  *setup_s = SecondsSince(start);
  return true;
}

// Data + index bytes of `tuples` stored with the uncoded heap codec and
// the same secondary indexes: the denominator of the Fig 5.7 ratio.
uint64_t HeapBytes(const Inputs& in, std::vector<OrdinalTuple> tuples) {
  Database db(kBlockSize);
  auto table = db.CreateTable("heap", in.schema, avqdb::TableKind::kHeap);
  if (Failed(table.status(), "create heap table")) return 0;
  if (Failed((*table)->BulkLoad(std::move(tuples)), "heap load")) return 0;
  for (size_t attr : in.secondary_attrs) {
    if (Failed((*table)->CreateSecondaryIndex(attr), "heap index")) return 0;
  }
  return ((*table)->DataBlockCount() + (*table)->IndexBlockCount()) *
         kBlockSize;
}

uint64_t StoredBytes(const Table& table) {
  return (table.DataBlockCount() + table.IndexBlockCount()) * kBlockSize;
}

// DecodedBlockCache::EstimateBytes summed over the table's blocks.
uint64_t DecodedBytes(uint64_t tuples, size_t arity, uint64_t blocks) {
  return blocks * (sizeof(std::vector<OrdinalTuple>) + 64) +
         tuples * (sizeof(OrdinalTuple) + arity * sizeof(uint64_t));
}

// ---- load generators (closed loops: each connection waits for its reply)

// Sends one read request and waits for its whole response.
avqdb::Result<server::Client::QueryResponse> RoundTrip(
    server::Client* client, uint64_t request_id, const ReadRequest& req) {
  server::QueryRequest wire;
  wire.table = kTable;
  wire.query = req.query;
  AVQDB_RETURN_IF_ERROR(client->SendQuery(request_id, wire));
  return client->ReadResponse();
}

struct ReadSide {
  std::vector<double> latency_ms;
  uint64_t rows = 0;
  // Reads and rows completed in each slice of the phase.
  std::vector<uint64_t> slice_reads, slice_rows;
};

// Splits a load phase into consecutive slices. At the end of each slice
// every reader waits, keeping its connection, until the phase's thread
// has run its work between slices and starts the next slice.
class SliceGate {
 public:
  SliceGate(size_t readers, size_t slices, Clock::time_point deadline)
      : slices_(slices), expected_(readers), deadline_(deadline) {}

  size_t slices() const { return slices_; }
  Clock::time_point first_deadline() const { return deadline_; }

  // Called by a reader at the end of a slice that is not the last; returns
  // the next slice's deadline.
  Clock::time_point Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t epoch = epoch_;
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return epoch_ != epoch; });
    return deadline_;
  }
  // Called by a reader that is done: after its last slice, or early on a
  // failure.
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    --expected_;
    cv_.notify_all();
  }
  // Waits until every reader has arrived at the end of the slice or left.
  void AwaitReaders() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiting_ == expected_; });
  }
  void StartSlice(Clock::time_point deadline) {
    std::lock_guard<std::mutex> lock(mu_);
    waiting_ = 0;
    ++epoch_;
    deadline_ = deadline;
    cv_.notify_all();
  }

 private:
  const size_t slices_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t expected_;
  size_t waiting_ = 0;
  uint64_t epoch_ = 0;
  Clock::time_point deadline_;
};

void ReaderLoop(uint16_t port, const Inputs& in, bool concurrent_writes,
                std::atomic<uint64_t>* next, SliceGate* gate,
                Verdicts* verdicts, ReadSide* out, SpanRecorder* recorder) {
  auto client = server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    verdicts->Attempt();
    verdicts->Fail("reader connect: " + client.status().ToString());
    gate->Leave();
    return;
  }
  uint64_t request_id = 0;
  Clock::time_point deadline = gate->first_deadline();
  size_t reads0 = 0;
  uint64_t rows0 = 0;
  while (true) {
    if (Clock::now() >= deadline) {
      out->slice_reads.push_back(out->latency_ms.size() - reads0);
      out->slice_rows.push_back(out->rows - rows0);
      reads0 = out->latency_ms.size();
      rows0 = out->rows;
      if (out->slice_reads.size() == gate->slices()) break;
      deadline = gate->Arrive();
      continue;
    }
    const uint64_t i = next->fetch_add(1, std::memory_order_relaxed);
    const ReadRequest& req = in.reads[i % in.reads.size()];
    verdicts->Attempt();
    const auto sent = Clock::now();
    auto response = [&] {
      SpanScope span(recorder, "client.request", i);
      return RoundTrip(client->get(), ++request_id, req);
    }();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - sent).count();
    if (!response.ok()) {
      verdicts->Fail("read transport: " + response.status().ToString());
      gate->Leave();
      return;
    }
    if (!response->status.ok()) {
      verdicts->Fail("read: " + response->status.ToString());
      continue;
    }
    {
      SpanScope span(recorder, "client.check", i);
      const std::string why =
          CheckAnswer(in, req, response->tuples, concurrent_writes);
      if (!why.empty()) verdicts->Wrong("request " + std::to_string(i) + ": " + why);
    }
    out->latency_ms.push_back(ms);
    out->rows += response->tuples.size();
  }
  gate->Leave();
  (void)(*client)->SendGoodbye();
}

struct WriteSide {
  std::vector<double> latency_ms;
  uint64_t ops = 0;
  double busy_s = 0;
};

// Sends `batches` in order. With `interval_s` > 0 batch k is not sent
// before start + k * interval_s (a closed loop with think time).
void WriterLoop(uint16_t port, const std::vector<avqdb::WriteBatch>& batches,
                double interval_s, Clock::time_point start, Verdicts* verdicts,
                WriteSide* out, SpanRecorder* recorder) {
  auto client = server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    verdicts->Attempt(batches.size());
    verdicts->Fail("writer connect: " + client.status().ToString());
    return;
  }
  for (size_t k = 0; k < batches.size(); ++k) {
    if (interval_s > 0) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(interval_s * k)));
    }
    server::MutateRequest req;
    req.table = kTable;
    req.batch = batches[k];
    verdicts->Attempt();
    const auto sent = Clock::now();
    auto outcome = [&]() {
      SpanScope span(recorder, "client.mutate", k);
      return (*client)->MutateCall(req);
    }();
    const double s = SecondsSince(sent);
    if (!outcome.ok()) {
      verdicts->Fail("mutate transport: " + outcome.status().ToString());
      return;
    }
    if (!outcome->status.ok()) {
      verdicts->Fail("mutate: " + outcome->status.ToString());
      continue;
    }
    out->latency_ms.push_back(s * 1e3);
    out->ops += batches[k].ops().size();
    out->busy_s += s;
  }
  (void)(*client)->SendGoodbye();
}

// Samples two gauges while the traced run's load phases execute.
class GaugeSampler {
 public:
  GaugeSampler()
      : queue_depth_(Level(obs::kThreadPoolQueueDepth)),
        apply_lag_(Level(obs::kWriteApplyLagBatches)),
        thread_([this] { Loop(); }) {}
  ~GaugeSampler() {
    stop_.store(true);
    thread_.join();
  }
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  int64_t max_queue_depth() const { return max_queue_depth_.load(); }
  int64_t max_apply_lag() const { return max_apply_lag_.load(); }

 private:
  void Loop() {
    while (!stop_.load()) {
      max_queue_depth_.store(
          std::max(max_queue_depth_.load(), queue_depth_->value()));
      max_apply_lag_.store(
          std::max(max_apply_lag_.load(), apply_lag_->value()));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  obs::Gauge* queue_depth_;
  obs::Gauge* apply_lag_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> max_queue_depth_{0};
  std::atomic<int64_t> max_apply_lag_{0};
  std::thread thread_;  // last: starts after the members it reads
};

struct Phase {
  ReadSide reads;
  WriteSide writes;
  // Reader time, without the work between slices.
  double elapsed_s = 0;
  // Reads and rows per second of each slice.
  std::vector<double> slice_qps, slice_rows_per_s;
  std::vector<SpanRecorder> recorders;
};

// Runs `readers` reader connections for `seconds`; with `write` set, the
// two writer scripts run beside them, paced over the same window (unpaced
// when `seconds` is 0). Without writers the window may be cut into
// `slices` equal slices, with `between` run after each but the last while
// the readers wait.
void RunPhase(const Workload& w, const Inputs& in, uint16_t port,
              double seconds, bool write, bool traced, Verdicts* verdicts,
              Phase* phase, size_t slices = 1,
              const std::function<void()>& between = nullptr) {
  const auto start = Clock::now();
  const auto slice_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / slices));
  const size_t writers = write ? in.writer_batches.size() : 0;
  SliceGate gate(w.readers, slices, start + slice_length);
  phase->recorders.clear();
  for (size_t i = 0; i < w.readers + writers; ++i) {
    phase->recorders.emplace_back(start);
  }
  std::atomic<uint64_t> next{0};
  std::vector<ReadSide> read_sides(w.readers);
  std::vector<WriteSide> write_sides(writers);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < w.readers; ++r) {
    threads.emplace_back(ReaderLoop, port, std::cref(in), w.concurrent_writes,
                         &next, &gate, verdicts, &read_sides[r],
                         traced ? &phase->recorders[r] : nullptr);
  }
  for (size_t k = 0; k < writers; ++k) {
    // Writers are staggered by a share of the interval, so their batches
    // commit in the same order on every run and the applied table (and
    // space_ratio_after_writes) repeats.
    const std::vector<avqdb::WriteBatch>& script = in.writer_batches[k];
    const double interval = seconds / static_cast<double>(script.size());
    const auto offset = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(interval * k / writers));
    threads.emplace_back(WriterLoop, port, std::cref(script), interval,
                         start + offset, verdicts, &write_sides[k],
                         traced ? &phase->recorders[w.readers + k] : nullptr);
  }
  std::vector<double> slice_s;
  for (size_t s = 0; s < slices; ++s) {
    const auto slice_start = Clock::now();
    gate.AwaitReaders();
    slice_s.push_back(SecondsSince(slice_start));
    if (s + 1 == slices) break;
    if (between) between();
    gate.StartSlice(Clock::now() + slice_length);
  }
  for (std::thread& t : threads) t.join();
  // A single slice lasts until the writers are done too.
  if (slices == 1) slice_s[0] = SecondsSince(start);
  phase->elapsed_s = 0;
  for (const double t : slice_s) phase->elapsed_s += t;
  for (size_t s = 0; s < slices; ++s) {
    uint64_t reads = 0, rows = 0;
    for (const ReadSide& r : read_sides) {
      if (s < r.slice_reads.size()) {
        reads += r.slice_reads[s];
        rows += r.slice_rows[s];
      }
    }
    phase->slice_qps.push_back(Ratio(static_cast<double>(reads), slice_s[s]));
    phase->slice_rows_per_s.push_back(
        Ratio(static_cast<double>(rows), slice_s[s]));
  }
  for (const ReadSide& r : read_sides) {
    phase->reads.latency_ms.insert(phase->reads.latency_ms.end(),
                                   r.latency_ms.begin(), r.latency_ms.end());
    phase->reads.rows += r.rows;
  }
  for (const WriteSide& ws : write_sides) {
    phase->writes.latency_ms.insert(phase->writes.latency_ms.end(),
                                    ws.latency_ms.begin(),
                                    ws.latency_ms.end());
    phase->writes.ops += ws.ops;
    phase->writes.busy_s += ws.busy_s;
  }
}

// Acknowledged ops per second of connection time spent waiting on
// MUTATE_OK, summed over the writer connections.
double MutateOpsPerSecond(const WriteSide& w, size_t writers) {
  return Ratio(static_cast<double>(w.ops), w.busy_s / writers);
}

bool WaitApplied(WriteAheadTable* ingest) {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (ingest->unapplied_batches() > 0) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ---- recovery ----

struct Recovery {
  double load_s = 0;
  double replay_s = 0;
  uint64_t records = 0;
};

// LoadTable of the base image, then WriteAheadTable::Recover of the WAL
// at `wal_path`; the recovered table must hold exactly the model's final
// set.
bool Recover(const std::string& dir, const std::string& wal_path,
             const avqdb::WalUuid& uuid, const Inputs& in, Verdicts* verdicts,
             Recovery* out) {
  const auto start = Clock::now();
  auto loaded = avqdb::LoadTable(BasePath(dir));
  if (Failed(loaded.status(), "load base image")) return false;
  out->load_s = SecondsSince(start);
  const auto replay_start = Clock::now();
  auto device = FileBlockDevice::Open(wal_path, kBlockSize);
  if (Failed(device.status(), "open WAL")) return false;
  avqdb::WalReplayStats replay;
  auto recovered = WriteAheadTable::Recover(
      loaded->table.get(), device->get(), uuid,
      avqdb::WriteAheadTableOptions{}, &replay);
  if (Failed(recovered.status(), "recover")) return false;
  out->replay_s = SecondsSince(replay_start);
  out->records = replay.records;
  verdicts->Attempt();
  auto all = loaded->table->ScanAll();
  if (!all.ok() || *all != in.final_set) {
    verdicts->Wrong("recovered table differs from the model");
  }
  return true;
}

// The recovery fixture: a WAL at FixtureWalPath holding the run's write
// batches, committed in-process in batch order (the order the two
// writers alternate in) onto a copy of the base image. The timed
// recoveries replay it onto the base image, so they need not wait until
// the served database is dropped.
bool MakeRecoveryFixture(const std::string& dir, const Inputs& in,
                         avqdb::WalUuid* uuid) {
  auto loaded = avqdb::LoadTable(BasePath(dir));
  if (Failed(loaded.status(), "load base image")) return false;
  auto device = FileBlockDevice::Create(FixtureWalPath(dir), kBlockSize);
  if (Failed(device.status(), "create recovery WAL")) return false;
  *uuid = avqdb::GenerateWalUuid();
  auto ingest = WriteAheadTable::Create(loaded->table.get(), device->get(),
                                        *uuid);
  if (Failed(ingest.status(), "attach recovery WAL")) return false;
  const size_t writers = in.writer_batches.size();
  for (size_t b = 0; b / writers < in.writer_batches[b % writers].size();
       ++b) {
    if (Failed((*ingest)->Write(in.writer_batches[b % writers][b / writers]),
               "recovery WAL write")) {
      return false;
    }
  }
  ingest->reset();  // drains the applier before the device closes
  return true;
}

// ---- the traced replay: one client, then the same requests in-process

struct Replay {
  uint64_t requests = 0;
  uint64_t rows = 0;
  double client_us = 0;  // summed client round trips
  // Server-side split of the same requests (registry deltas; one client,
  // so they cover exactly these requests).
  double server_queue_us = 0, server_exec_us = 0, server_send_us = 0;
  double admission_us = 0;
  double bytes_sent = 0;
  double peak_query_bytes = 0;
  // In-process re-execution.
  double select_us = 0, read_us = 0, decode_us = 0;
  double encode_us = 0;
  uint64_t timed_blocks = 0;
  uint64_t data_blocks = 0, index_blocks = 0;
  // Per-request ratios summed over the requests (a request that returns
  // nothing counts as returning one row).
  double examined_per_row = 0, decoded_per_row = 0;
};

// Data blocks the request's access path visits, in visit order; the
// index call that locates them is recorded as an "index.seek" span.
bool LocateBlocks(const Table& table, const QueryStats& stats,
                  const avqdb::ConjunctiveQuery& query,
                  const std::vector<BlockId>& all_blocks, SpanRecorder* rec,
                  uint64_t rid, std::vector<BlockId>* blocks) {
  blocks->clear();
  const avqdb::Schema& schema = *table.schema();
  uint64_t lo = 0, hi = ~0ull;
  for (const avqdb::RangeQuery& p : query.predicates) {
    if (p.attribute == stats.driver_attribute) {
      lo = std::max(lo, p.lo);
      hi = std::min(hi, p.hi);
    }
  }
  if (stats.path == avqdb::AccessPath::kClusteredRange) {
    OrdinalTuple start(schema.num_attributes(), 0);
    start[0] = lo;
    OrdinalTuple end(schema.num_attributes());
    for (size_t i = 0; i < end.size(); ++i) end[i] = schema.radices()[i] - 1;
    end[0] = hi;
    auto iter = [&] {
      SpanScope span(rec, "index.seek", rid);
      return table.primary_index().SeekBlock(start);
    }();
    if (Failed(iter.status(), "seek")) return false;
    while (iter->Valid()) {
      auto block_min = table.primary_index().DecodeKey(iter->key());
      if (Failed(block_min.status(), "decode key")) return false;
      if (avqdb::CompareTuples(*block_min, end) > 0) break;
      blocks->push_back(static_cast<BlockId>(iter->value()));
      if (Failed(iter->Next(), "index next")) return false;
    }
  } else if (stats.path == avqdb::AccessPath::kSecondaryIndex) {
    auto found = [&] {
      SpanScope span(rec, "index.seek", rid);
      return table.GetSecondaryIndex(stats.driver_attribute)
          ->LookupRange(lo, hi);
    }();
    if (Failed(found.status(), "secondary lookup")) return false;
    *blocks = std::move(found).value();
  } else {
    auto iter = [&] {
      SpanScope span(rec, "index.seek", rid);
      return table.primary_index().Begin();
    }();
    if (Failed(iter.status(), "index begin")) return false;
    *blocks = all_blocks;
  }
  return true;
}

bool RunReplay(const Workload& w, const Inputs& in, Served* s,
               Verdicts* verdicts, SpanRecorder* rec, Replay* out) {
  const size_t n = std::min(w.replay, in.reads.size() / w.replay_stride);
  // The decoded-block cache is detached for the replay: its shard layout
  // depends on the table's address, so hits would not repeat from run to
  // run. The replay measures the paper's uncached cost model.
  s->table->SetDecodedBlockCache(nullptr);

  // Pass A: the requests over the wire, one connection.
  auto client = server::Client::Connect("127.0.0.1", s->server->port());
  if (Failed(client.status(), "replay connect")) return false;
  const HistMark queue = Mark(obs::kServerRequestQueueMicros);
  const HistMark exec = Mark(obs::kServerRequestExecMicros);
  const HistMark send = Mark(obs::kServerRequestSendMicros);
  const HistMark admission = Mark(obs::kAdmissionQueueWaitMicros);
  const HistMark peak = Mark(obs::kExecQueryPeakBytes);
  const uint64_t bytes_before = Count(obs::kServerBytesSent)->value();
  for (size_t i = 0; i < n; ++i) {
    const ReadRequest& req = in.reads[i * w.replay_stride];
    verdicts->Attempt();
    const auto sent = Clock::now();
    auto response = [&] {
      SpanScope span(rec, "replay.client", i);
      return RoundTrip(client->get(), i + 1, req);
    }();
    out->client_us += SecondsSince(sent) * 1e6;
    if (!response.ok() || !response->status.ok()) {
      verdicts->Fail("replay request failed");
      continue;
    }
    const std::string why =
        CheckAnswer(in, req, response->tuples, w.concurrent_writes);
    if (!why.empty()) verdicts->Wrong("replay: " + why);
    out->rows += response->tuples.size();
  }
  (void)(*client)->SendGoodbye();
  client->reset();
  out->requests = n;
  // The server records send time after the last frame leaves; give the
  // strand a moment to finish before reading the deltas.
  for (int spin = 0; spin < 1000 && CountSince(obs::kServerRequestSendMicros,
                                               send) < n;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out->server_queue_us = MeanSince(obs::kServerRequestQueueMicros, queue) * n;
  out->server_exec_us = MeanSince(obs::kServerRequestExecMicros, exec) * n;
  out->server_send_us = MeanSince(obs::kServerRequestSendMicros, send) * n;
  out->admission_us = MeanSince(obs::kAdmissionQueueWaitMicros, admission) *
                      CountSince(obs::kAdmissionQueueWaitMicros, admission);
  out->peak_query_bytes = MeanSince(obs::kExecQueryPeakBytes, peak);
  out->bytes_sent =
      static_cast<double>(Count(obs::kServerBytesSent)->value() - bytes_before);

  // Pass B: the same requests in-process, split into the paper's terms.
  std::vector<BlockId> all_blocks;
  {
    auto iter = s->table->primary_index().Begin();
    if (Failed(iter.status(), "index begin")) return false;
    while (iter->Valid()) {
      all_blocks.push_back(static_cast<BlockId>(iter->value()));
      if (Failed(iter->Next(), "index next")) return false;
    }
  }
  avqdb::DecodeArena arena;
  const avqdb::DecodeKernel& kernel = avqdb::SelectedDecodeKernel();
  std::vector<BlockId> blocks;
  std::vector<std::string> images;
  for (size_t i = 0; i < n; ++i) {
    const ReadRequest& req = in.reads[i * w.replay_stride];
    SpanScope request_span(rec, "replay.request", i);
    QueryStats stats;
    const auto select_start = Clock::now();
    auto rows = [&] {
      SpanScope span(rec, "db.select", i);
      return s->db->Select(kTable, req.query, nullptr, &stats);
    }();
    out->select_us += SecondsSince(select_start) * 1e6;
    verdicts->Attempt();
    if (!rows.ok()) {
      verdicts->Fail("in-process select: " + rows.status().ToString());
      continue;
    }
    const std::string why = CheckAnswer(in, req, *rows, w.concurrent_writes);
    if (!why.empty()) verdicts->Wrong("in-process: " + why);
    out->data_blocks += stats.data_blocks_read;
    out->index_blocks += stats.index_blocks_read;
    const double returned = std::max<double>(1.0, rows->size());
    out->examined_per_row += stats.tuples_examined / returned;
    out->decoded_per_row += stats.tuples_decoded / returned;

    if (!LocateBlocks(*s->table, stats, req.query, all_blocks, rec, i,
                      &blocks)) {
      return false;
    }
    const size_t step =
        std::max<size_t>(1, (blocks.size() + kTimedBlocksPerRequest - 1) /
                                kTimedBlocksPerRequest);
    images.clear();
    {
      SpanScope span(rec, "storage.read", i);
      const auto t = Clock::now();
      for (size_t b = 0; b < blocks.size(); b += step) {
        auto image = s->table->data_pager().Read(blocks[b]);
        if (Failed(image.status(), "pager read")) return false;
        images.push_back(std::move(image).value());
      }
      out->read_us += SecondsSince(t) * 1e6;
    }
    {
      SpanScope span(rec, "avq.decode", i);
      const auto t = Clock::now();
      for (const std::string& image : images) {
        avqdb::BlockHeader header;
        if (Failed(avqdb::DecodeBlockToArena(*in.schema, avqdb::Slice(image),
                                             kernel, &arena, &header),
                   "decode")) {
          return false;
        }
      }
      out->decode_us += SecondsSince(t) * 1e6;
    }
    out->timed_blocks += images.size();
    {
      SpanScope span(rec, "server.encode", i);
      const auto t = Clock::now();
      size_t bytes = 0;
      for (size_t b = 0; b < rows->size(); b += 512) {
        bytes += server::EncodeResultChunkPayload(
                     *rows, b, std::min(rows->size(), b + 512))
                     .size();
      }
      out->encode_us += SecondsSince(t) * 1e6;
      if (bytes == 0 && !rows->empty()) verdicts->Wrong("empty encoding");
    }
  }
  s->table->SetDecodedBlockCache(s->cache.get());
  return true;
}

// Summed duration of the spans called `name`.
double SpanTotalUs(const std::vector<Span>& spans, const char* name) {
  double us = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) us += (s.end_ns - s.start_ns) / 1e3;
  }
  return us;
}

// Per span name: count, total and self time, on stderr.
void PrintSpans(const char* title, const std::vector<Span>& spans) {
  std::fprintf(stderr, "spans (%s):\n", title);
  for (const auto& [name, t] : SummarizeSpans(spans)) {
    std::fprintf(stderr, "  %-16s count %7llu total %12.1f us self %12.1f us\n",
                 name.c_str(), static_cast<unsigned long long>(t.count),
                 t.total_us, t.self_us);
  }
}

double WalFsyncUs(const std::string& dir) {
  auto device = FileBlockDevice::Create(dir + "/fsync.probe", kBlockSize);
  if (Failed(device.status(), "fsync probe")) return 0;
  auto id = (*device)->Allocate();
  if (Failed(id.status(), "fsync probe allocate")) return 0;
  const std::string block(kBlockSize, 'x');
  std::vector<double> us;
  for (int i = 0; i < 64; ++i) {
    const auto t = Clock::now();
    if (Failed((*device)->Write(*id, avqdb::Slice(block)), "probe write") ||
        Failed((*device)->Sync(), "probe sync")) {
      return 0;
    }
    us.push_back(SecondsSince(t) * 1e6);
  }
  device->reset();
  ::unlink((dir + "/fsync.probe").c_str());
  return Median(us);
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindWorkload(name) != nullptr; }

bool RunWorkload(const RunOptions& opt, RunReport* report) {
  const Workload& w = *FindWorkload(opt.workload);
  Verdicts verdicts;
  const auto run_start = Clock::now();
  const auto progress = [&](const char* what) {
    std::fprintf(stderr, "perfbench: %-10s done at %7.2f s\n", what,
                 SecondsSince(run_start));
  };

  // Inputs and expected answers, before anything is timed.
  Inputs in = MakeInputs(w.relation,
                         static_cast<size_t>(opt.tuples * w.size_share),
                         std::max<size_t>(
                             50, kWriteBatches * opt.tuples / kDefaultTuples),
                         w.max_batch_ops, opt.seed);
  if (w.relation == Relation::kPaper16) {
    MakeScanPool(&in, w.pool, opt.seed);
  } else if (w.concurrent_writes) {
    MakeMixedPool(&in, w.pool, opt.seed);
  } else {
    MakeLookupPool(&in, w.pool, opt.seed);
  }
  progress("inputs");
  const size_t arity = in.schema->num_attributes();
  const uint64_t n = in.tuples.size();
  // About a quarter of the decoded size of the 5-attribute relation of
  // --tuples tuples; the same budget in every workload.
  const uint64_t cache_budget =
      opt.tuples * (sizeof(OrdinalTuple) + 5 * sizeof(uint64_t)) / 4;

  // Set-up, repeated; the last one is served.
  Served served;
  std::vector<double> setup_s, bulkload_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    served.Stop();
    double seconds = 0;
    if (!SetUp(in, cache_budget, opt.work_dir, &served, &seconds)) {
      return false;
    }
    setup_s.push_back(seconds);
    bulkload_s.push_back(served.bulkload_s);
  }
  progress("setup");
  avqdb::WalUuid fixture_uuid{};
  if (!MakeRecoveryFixture(opt.work_dir, in, &fixture_uuid)) return false;
  progress("fixture");
  std::vector<double> recovery_s, load_s, replay_s;
  uint64_t replay_records = 0;
  const auto recover_fixture = [&]() {
    Recovery rec;
    if (!Recover(opt.work_dir, FixtureWalPath(opt.work_dir), fixture_uuid,
                 in, &verdicts, &rec)) {
      return false;
    }
    if (!recovery_s.empty() && rec.records != replay_records) {
      verdicts.Wrong("WAL replay record count changed between recoveries");
    }
    recovery_s.push_back(rec.load_s + rec.replay_s);
    load_s.push_back(rec.load_s);
    replay_s.push_back(rec.replay_s);
    replay_records = rec.records;
    return true;
  };
  const uint16_t port = served.server->port();
  const uint64_t data_blocks = served.table->DataBlockCount();
  const uint64_t index_blocks = served.table->IndexBlockCount();
  const uint64_t decoded_bytes = DecodedBytes(n, arity, data_blocks);
  const uint64_t loaded_bytes = StoredBytes(*served.table);

  // Traced run: replay first (deterministic counts), from an idle server.
  Replay replay;
  SpanRecorder replay_rec(Clock::now());
  if (opt.trace) {
    if (!RunReplay(w, in, &served, &verdicts, &replay_rec, &replay)) {
      return false;
    }
    served.cache->Clear();
    progress("replay");
  }

  // peak_rss_mb covers the served program from here to the end of
  // recovery, not the set-ups before nor the heap-codec table after.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "perfbench: cannot reset VmHWM\n");
    return false;
  }
  // Load phase(s). The traced run splits the window: untraced first half,
  // traced second half; the qps difference is the tracing overhead.
  Phase plain, traced;
  HistMark queue{}, exec{}, send{}, admission{}, pool_task{};
  uint64_t hits0 = 0, misses0 = 0, evictions0 = 0;
  std::unique_ptr<GaugeSampler> sampler;
  if (opt.trace) sampler = std::make_unique<GaugeSampler>();
  const HistMark commit_wait = Mark(obs::kWriteCommitWaitMicros);
  const HistMark group_batches = Mark(obs::kWriteGroupBatches);
  const uint64_t backpressure0 = Count(obs::kWriteBackpressureWaits)->value();
  const uint64_t syncs0 = Count(obs::kWalSyncs)->value();
  const uint64_t batches0 = Count(obs::kWriteBatches)->value();
  const uint64_t wal_bytes0 = Count(obs::kWalAppendedBytes)->value();
  WriteSide writes;
  if (!opt.trace && !w.concurrent_writes) {
    bool recovered = true;
    RunPhase(w, in, port, opt.seconds, false, false, &verdicts, &plain,
             w.recoveries,
             [&] { recovered = recovered && recover_fixture(); });
    if (!recovered || !recover_fixture()) return false;
  } else if (!opt.trace) {
    RunPhase(w, in, port, opt.seconds, true, false, &verdicts, &plain);
  } else {
    // mixed_rw's writers span both halves; start them separately.
    const double half = opt.seconds / 2;
    Workload writers_only = w;
    writers_only.readers = 0;
    Phase write_phase;
    std::thread writer_thread;  // joined below, before its captures die
    if (w.concurrent_writes) {
      writer_thread = std::thread([&] {
        RunPhase(writers_only, in, port, opt.seconds, true, false, &verdicts,
                 &write_phase);
      });
    }
    RunPhase(w, in, port, half, false, false, &verdicts, &plain);
    queue = Mark(obs::kServerRequestQueueMicros);
    exec = Mark(obs::kServerRequestExecMicros);
    send = Mark(obs::kServerRequestSendMicros);
    admission = Mark(obs::kAdmissionQueueWaitMicros);
    pool_task = Mark(obs::kThreadPoolTaskMicros);
    hits0 = Count(obs::kDecodedCacheHits)->value();
    misses0 = Count(obs::kDecodedCacheMisses)->value();
    evictions0 = Count(obs::kDecodedCacheEvictions)->value();
    RunPhase(w, in, port, half, false, true, &verdicts, &traced);
    if (writer_thread.joinable()) writer_thread.join();
    writes = write_phase.writes;
  }
  if (!opt.trace && w.concurrent_writes) writes = plain.writes;

  progress("reads");
  const Phase& measured = opt.trace ? traced : plain;
  const double reads_done = static_cast<double>(measured.reads.latency_ms.size());
  const double qps = Median(measured.slice_qps);
  const double rows_per_s = Median(measured.slice_rows_per_s);
  std::vector<double> read_ms = measured.reads.latency_ms;
  const double read_p50 = Quantile(&read_ms, 0.50);
  const double read_p99 = Quantile(&read_ms, 0.99);

  // Layer figures of the traced load phase.
  double cache_hit_rate = 0, evictions_per_query = 0, cache_bytes_per_tuple = 0;
  double srv_queue = 0, srv_exec = 0, srv_send = 0, admission_wait = 0;
  double pool_task_us = 0;
  if (opt.trace) {
    pool_task_us = MeanSince(obs::kThreadPoolTaskMicros, pool_task);
    srv_queue = MeanSince(obs::kServerRequestQueueMicros, queue);
    srv_exec = MeanSince(obs::kServerRequestExecMicros, exec);
    srv_send = MeanSince(obs::kServerRequestSendMicros, send);
    admission_wait = MeanSince(obs::kAdmissionQueueWaitMicros, admission);
    const double hits = Count(obs::kDecodedCacheHits)->value() - hits0;
    const double misses = Count(obs::kDecodedCacheMisses)->value() - misses0;
    cache_hit_rate = Ratio(hits, hits + misses);
    evictions_per_query =
        Ratio(Count(obs::kDecodedCacheEvictions)->value() - evictions0,
              reads_done);
    const DecodedBlockCache::Stats cs = served.cache->stats();
    cache_bytes_per_tuple =
        Ratio(static_cast<double>(Level(obs::kDecodedCacheResidentBytes)->value()),
              static_cast<double>(cs.entries) * n / data_blocks);
  }

  // Writes: beside the reads in mixed_rw, after them elsewhere.
  auto found_ingest = served.db->GetIngest(kTable);
  if (Failed(found_ingest.status(), "ingest")) return false;
  WriteAheadTable* ingest = *found_ingest;
  if (!w.concurrent_writes) {
    // The write tail: both writers unpaced (a zero-length window), so its
    // throughput is the write path's.
    Workload writers_only = w;
    writers_only.readers = 0;
    Phase tail;
    RunPhase(writers_only, in, port, 0, true, false, &verdicts, &tail);
    writes = tail.writes;
  }
  if (!WaitApplied(ingest)) {
    std::fprintf(stderr, "perfbench: applier did not drain\n");
    return false;
  }
  progress("writes");
  std::vector<double> mutate_ms = writes.latency_ms;
  const double mutate_p50 = Quantile(&mutate_ms, 0.50);
  const double mutate_p99 = Quantile(&mutate_ms, 0.99);
  const double mutate_ops_per_s =
      MutateOpsPerSecond(writes, in.writer_batches.size());
  const double commit_wait_us = MeanSince(obs::kWriteCommitWaitMicros, commit_wait);
  const double batches_per_group = MeanSince(obs::kWriteGroupBatches, group_batches);
  const double backpressure =
      Count(obs::kWriteBackpressureWaits)->value() - backpressure0;
  const double batches = Count(obs::kWriteBatches)->value() - batches0;
  const double syncs_per_batch =
      Ratio(Count(obs::kWalSyncs)->value() - syncs0, batches);
  const double wal_bytes_per_user_byte =
      Ratio(Count(obs::kWalAppendedBytes)->value() - wal_bytes0,
            static_cast<double>(in.write_payload_bytes));
  const int64_t queue_depth_max = sampler ? sampler->max_queue_depth() : 0;
  const int64_t apply_lag_max = sampler ? sampler->max_apply_lag() : 0;
  sampler.reset();

  // The served state must equal the model with every acknowledged write.
  verdicts.Attempt();
  {
    auto state = ingest->SnapshotScan();
    if (!state.ok() || *state != in.final_set) {
      verdicts.Wrong("served state differs from the model after writes");
    }
  }
  // Space again after apply, so the block splits of the writes count.
  const uint64_t written_bytes = StoredBytes(*served.table);

  progress("checks");
  // Drop the served database, then recover it from disk.
  const avqdb::WalUuid uuid = ingest->wal().uuid();
  served.Stop();
  // The durability check: the served WAL recovers to the model too. Its
  // batches commit in the order the writers' round trips interleave, so
  // the timed recoveries replay the fixture instead.
  Recovery served_rec;
  if (!Recover(opt.work_dir, WalPath(opt.work_dir), uuid, in, &verdicts,
               &served_rec)) {
    return false;
  }
  while (recovery_s.size() < w.recoveries) {
    if (!recover_fixture()) return false;
  }
  if (served_rec.records != replay_records) {
    verdicts.Wrong("served WAL and recovery fixture hold different batches");
  }
  progress("recovery");
  const double peak_rss_mb = PeakRssMb();  // before HeapBytes below
  MetricSink& m = report->metrics;
  if (!opt.trace) {
    m.Put("setup_s", Median(setup_s), "s");
    m.Put("qps", qps, "1/s");
    m.Put("read_p50_ms", read_p50, "ms");
    m.Put("rows_per_s", rows_per_s, "1/s");
    m.Put("recovery_s", Median(recovery_s), "s");
    m.Put("space_ratio",
          Ratio(static_cast<double>(loaded_bytes),
                static_cast<double>(HeapBytes(in, in.tuples))),
          "ratio");
    m.Put("space_ratio_after_writes",
          Ratio(static_cast<double>(written_bytes),
                static_cast<double>(HeapBytes(in, in.final_set))),
          "ratio");
    m.Put("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const double k = static_cast<double>(replay.requests);
    const double rows = std::max<double>(1.0, static_cast<double>(replay.rows));
    const double timed = std::max<double>(1.0, static_cast<double>(replay.timed_blocks));
    const double t1 = replay.read_us / timed;
    const double t2 = replay.decode_us / timed;
    const double seek_us = SpanTotalUs(replay_rec.spans(), "index.seek");
    const double n_blocks = static_cast<double>(replay.data_blocks);
    const double t3_total =
        replay.select_us - seek_us - n_blocks * (t1 + t2);
    const double traced_qps = qps;
    const double plain_qps =
        Ratio(static_cast<double>(plain.reads.latency_ms.size()), plain.elapsed_s);

    m.Put("server.wire_us", (replay.client_us - replay.select_us) / k, "us");
    m.Put("server.queue_us", srv_queue, "us");
    m.Put("server.exec_us", srv_exec, "us");
    m.Put("server.send_us", srv_send, "us");
    m.Put("server.encode_us_per_krow", replay.encode_us / rows * 1e3, "us");
    m.Put("server.bytes_per_row", replay.bytes_sent / rows, "B");
    m.Put("db.admission_wait_us", admission_wait, "us");
    m.Put("db.N_blocks", n_blocks / k, "blocks");
    m.Put("db.rows_examined_per_row", replay.examined_per_row / k, "ratio");
    m.Put("db.t3_us_per_block", Ratio(t3_total, n_blocks), "us");
    m.Put("db.peak_query_bytes", replay.peak_query_bytes, "B");
    m.Put("index.I_blocks", static_cast<double>(replay.index_blocks) / k,
          "blocks");
    m.Put("index.seek_us", seek_us / k, "us");
    m.Put("storage.t1_us_per_block", t1, "us");
    m.Put("storage.cache_hit_rate", cache_hit_rate, "ratio");
    m.Put("storage.cache_evictions_per_query", evictions_per_query, "count");
    m.Put("storage.cache_bytes_per_tuple", cache_bytes_per_tuple, "B");
    m.Put("avq.t2_us_per_block", t2, "us");
    m.Put("avq.tuples_decoded_per_row", replay.decoded_per_row / k, "ratio");
    m.Put("avq.encode_us_per_block",
          Median(bulkload_s) * 1e6 / static_cast<double>(data_blocks), "us");
    m.Put("db.write.commit_wait_us", commit_wait_us, "us");
    m.Put("db.write.batches_per_group", batches_per_group, "ratio");
    m.Put("db.write.backpressure_waits", backpressure, "count");
    m.Put("db.write.apply_lag_max", static_cast<double>(apply_lag_max),
          "count");
    m.Put("wal.syncs_per_batch", syncs_per_batch, "ratio");
    m.Put("wal.bytes_per_user_byte", wal_bytes_per_user_byte, "ratio");
    m.Put("wal.fsync_us", WalFsyncUs(opt.work_dir), "us");
    m.Put("wal.replay_records", static_cast<double>(replay_records), "count");
    m.Put("recovery.load_s", Median(load_s), "s");
    m.Put("recovery.replay_s", Median(replay_s), "s");
    m.Put("recovery.records_per_s",
          Ratio(static_cast<double>(replay_records), Median(replay_s)), "1/s");
    m.Put("pool.task_us", pool_task_us, "us");
    m.Put("pool.queue_depth_max", static_cast<double>(queue_depth_max),
          "count");
    m.Put("client.read_p99_ms", read_p99, "ms");
    m.Put("client.mutate_ops_per_s", mutate_ops_per_s, "1/s");
    m.Put("client.mutate_p50_ms", mutate_p50, "ms");
    m.Put("client.mutate_p99_ms", mutate_p99, "ms");
    m.Put("obs.trace_overhead_pct",
          Ratio(plain_qps - traced_qps, plain_qps) * 100, "%");

    // Reconciliation of the replayed requests along their blocking path:
    // client round trip = client side + server queue + admission + index
    // + N(t1 + t2) + t3 + encode + rest of send + unaccounted.
    const double rt = replay.client_us / k;
    const double client_side = rt - (replay.server_queue_us +
                                     replay.server_exec_us +
                                     replay.server_send_us) / k;
    const double parts[] = {
        client_side,
        replay.server_queue_us / k,
        replay.admission_us / k,
        seek_us / k,
        n_blocks * t1 / k,
        n_blocks * t2 / k,
        t3_total / k,
        replay.encode_us / k,
        (replay.server_send_us - replay.encode_us) / k,
    };
    const char* part_names[] = {"client+network", "server.queue",
                                "db.admission",   "index.seek (I)",
                                "storage.t1 x N", "avq.t2 x N",
                                "db.t3 x N",      "server.encode",
                                "server.send (rest)"};
    double sum = 0;
    std::fprintf(stderr, "reconciliation (%s, %llu replayed requests, us):\n",
                 w.name, static_cast<unsigned long long>(replay.requests));
    for (size_t i = 0; i < std::size(parts); ++i) {
      sum += parts[i];
      std::fprintf(stderr, "  %-20s %12.2f\n", part_names[i], parts[i]);
    }
    std::fprintf(stderr, "  %-20s %12.2f\n  %-20s %12.2f\n  %-20s %12.2f\n",
                 "sum of parts", sum, "request latency", rt, "unaccounted",
                 rt - sum);
    m.Put("recon.request_us", rt, "us");
    m.Put("recon.parts_us", sum, "us");
    m.Put("recon.unaccounted_us", rt - sum, "us");
    m.Put("recon.unaccounted_pct", Ratio(rt - sum, rt) * 100, "%");
    PrintSpans("replay", replay_rec.spans());
    std::vector<Span> load_spans;
    for (const SpanRecorder& r : traced.recorders) {
      load_spans.insert(load_spans.end(), r.spans().begin(), r.spans().end());
    }
    PrintSpans("traced load half", load_spans);
  }

  char info[2048];
  std::snprintf(
      info, sizeof(info),
      "{\"workload\": \"%s\", \"why\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
      "\"decode_kernel\": \"%s\", \"table\": {\"tuples\": %llu, "
      "\"attributes\": %zu, \"data_blocks\": %llu, \"index_blocks\": %llu, "
      "\"decoded_bytes\": %llu}, \"cache_budget_bytes\": %llu, "
      "\"read_samples\": %zu, \"mutate_samples\": %zu, "
      "\"write_ops\": %llu, \"setup_samples\": %d, "
      "\"recovery_samples\": %zu}",
      w.name, w.why, static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
      avqdb::SelectedDecodeKernel().name(), static_cast<unsigned long long>(n),
      arity, static_cast<unsigned long long>(data_blocks),
      static_cast<unsigned long long>(index_blocks),
      static_cast<unsigned long long>(decoded_bytes),
      static_cast<unsigned long long>(cache_budget),
      measured.reads.latency_ms.size(), writes.latency_ms.size(),
      static_cast<unsigned long long>(in.write_ops), kSetupRepeats,
      recovery_s.size());
  report->info_json = info;
  report->attempted = verdicts.attempted();
  report->failed = verdicts.failed();
  report->correct = verdicts.wrong() == 0 && verdicts.failed() == 0;
  return true;
}

}  // namespace perfbench
