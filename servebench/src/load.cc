#include "load.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "api/routing_service.h"
#include "core/mutex.h"
#include "core/timer.h"
#include "env.h"
#include "remote/remote_sharded_routing_service.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace servebench {

using kspdg::Graph;
using kspdg::MetricsSnapshot;
using kspdg::QueryKind;
using kspdg::RouteRequest;
using kspdg::RoutingServiceInterface;
using kspdg::WeightUpdate;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kDataset = "NY-S";
constexpr size_t kWarmupBatches = 8;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

kspdg::Result<std::unique_ptr<RoutingServiceInterface>> CreateService(
    const WorkloadShape& shape, Graph graph, const std::string& socket_dir) {
  if (shape.remote) {
    kspdg::RemoteShardedRoutingServiceOptions options;
    options.defaults = ServiceDefaults(shape);
    options.dtlp.partition.max_vertices = shape.z;
    options.num_shards = 2;
    options.num_replicas = 1;
    options.remote.socket_dir = socket_dir;
    auto service = kspdg::RemoteShardedRoutingService::Create(
        std::move(graph), std::move(options));
    if (!service.ok()) return service.status();
    return std::unique_ptr<RoutingServiceInterface>(
        std::move(service).value());
  }
  kspdg::RoutingServiceOptions options;
  options.defaults = ServiceDefaults(shape);
  options.dtlp.partition.max_vertices = shape.z;
  auto service = kspdg::RoutingService::Create(std::move(graph), options);
  if (!service.ok()) return service.status();
  return std::unique_ptr<RoutingServiceInterface>(std::move(service).value());
}

/// Pins the writer (the last thread) to a CPU of its own and spreads the
/// clients over the others. Unpinned, a client woken when the writer
/// releases the lock could preempt the writer before it re-queues, and
/// whether that happened flipped traffic-churn's reads between about 70
/// and about 450 per second from run to run.
void PinLoadThreads(std::vector<std::thread>& threads) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2 || threads.empty()) return;
  auto pin = [](std::thread& t, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(t.native_handle(), sizeof(one), &one);
  };
  pin(threads.back(), cpus[0]);
  for (size_t i = 0; i + 1 < threads.size(); ++i) {
    pin(threads[i], cpus[1 + i % (cpus.size() - 1)]);
  }
}

MetricsSnapshot Scrape(const RoutingServiceInterface& service, Tracer* tracer,
                       kspdg::Mutex& mu, std::vector<double>& scrape_ms) {
  kspdg::WallTimer timer;
  MetricsSnapshot snapshot;
  {
    ScopedSpan span(tracer, "obs.scrape", 0, 0);
    snapshot = service.Metrics();
  }
  double ms = timer.ElapsedMillis();
  kspdg::MutexLock lock(mu);
  scrape_ms.push_back(ms);
  return snapshot;
}

kspdg::Status StatusFrom(kspdg::StatusCode code, std::string message) {
  using kspdg::Status;
  using kspdg::StatusCode;
  switch (code) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kInvalidArgument: return Status::InvalidArgument(message);
    case StatusCode::kNotFound: return Status::NotFound(message);
    case StatusCode::kOutOfRange: return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kInternal: return Status::Internal(message);
    case StatusCode::kIOError: return Status::IOError(message);
    case StatusCode::kUnavailable: return Status::Unavailable(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
  }
  return Status::Internal(message);
}

/// One client's answers, appended to a file as they arrive. Only the fields
/// the oracle and the reports read are kept. A write error is remembered
/// and reported when the window ends.
class AnswerSpool {
 public:
  explicit AnswerSpool(const std::string& path)
      : file_(std::fopen(path.c_str(), "wb")) {
    if (file_ != nullptr) std::setvbuf(file_, nullptr, _IOFBF, 1 << 16);
  }
  ~AnswerSpool() { (void)Close(); }

  void Write(const Answer& a) {
    Put(a.request_id);
    Put(static_cast<uint8_t>(a.kind));
    Put(a.source);
    Put(a.target);
    PutString(a.backend);
    Put(a.latency_ms);
    Put(static_cast<int32_t>(a.status.code()));
    PutString(a.status.message());
    const kspdg::RouteResponse& r = a.response;
    Put(r.epoch);
    Put(r.k);
    PutString(r.backend);
    Put(r.stats.solve_micros);
    Put(r.stats.engine.iterations);
    Put(static_cast<uint32_t>(r.paths.size()));
    for (const kspdg::Path& p : r.paths) {
      Put(p.distance);
      Put(static_cast<uint32_t>(p.vertices.size()));
      PutRaw(p.vertices.data(), p.vertices.size() * sizeof(kspdg::VertexId));
    }
  }

  /// Flushes and closes; false when any write failed.
  bool Close() {
    if (file_ == nullptr) return false;
    bool ok = !failed_ && std::fclose(file_) == 0;
    file_ = nullptr;
    return ok;
  }

  size_t bytes() const { return bytes_; }

 private:
  template <typename T>
  void Put(const T& v) { PutRaw(&v, sizeof(T)); }
  void PutString(const std::string& s) {
    Put(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  void PutRaw(const void* data, size_t size) {
    if (file_ == nullptr || size == 0) return;
    failed_ |= std::fwrite(data, 1, size, file_) != size;
    bytes_ += size;
  }

  std::FILE* file_;
  bool failed_ = false;
  size_t bytes_ = 0;
};

/// Reads a spool file back; false on a short or unreadable file.
bool ReadSpool(const std::string& path, std::vector<Answer>& out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  bool ok = true;
  auto raw = [&](void* data, size_t size) {
    ok = ok && std::fread(data, 1, size, file) == size;
  };
  auto get = [&](auto& v) { raw(&v, sizeof(v)); };
  auto get_string = [&](std::string& s) {
    uint32_t size = 0;
    get(size);
    if (!ok) return;
    s.resize(size);
    raw(s.data(), size);
  };
  for (uint64_t id = 0; std::fread(&id, sizeof(id), 1, file) == 1 && ok;) {
    Answer a;
    a.request_id = id;
    uint8_t kind = 0;
    get(kind);
    a.kind = static_cast<QueryKind>(kind);
    get(a.source);
    get(a.target);
    get_string(a.backend);
    get(a.latency_ms);
    int32_t code = 0;
    std::string message;
    get(code);
    get_string(message);
    a.status = StatusFrom(static_cast<kspdg::StatusCode>(code),
                          std::move(message));
    kspdg::RouteResponse& r = a.response;
    r.kind = a.kind;
    get(r.epoch);
    get(r.k);
    get_string(r.backend);
    get(r.stats.solve_micros);
    get(r.stats.engine.iterations);
    uint32_t paths = 0;
    get(paths);
    for (uint32_t i = 0; ok && i < paths; ++i) {
      kspdg::Path p;
      get(p.distance);
      uint32_t vertices = 0;
      get(vertices);
      if (!ok) break;
      p.vertices.resize(vertices);
      raw(p.vertices.data(), vertices * sizeof(kspdg::VertexId));
      r.paths.push_back(std::move(p));
    }
    if (ok) out.push_back(std::move(a));
  }
  ok = ok && std::feof(file);
  std::fclose(file);
  return ok;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"kspdg-serve", "traffic-churn", "remote-batch"};
}

std::optional<WorkloadShape> ShapeFor(const std::string& name, bool smoke) {
  const kspdg::DatasetSpec* spec = kspdg::FindDataset(kDataset);
  if (spec == nullptr) return std::nullopt;
  WorkloadShape shape;
  shape.name = name;
  shape.z = spec->default_z;
  if (name == "kspdg-serve") {
    shape.vertices = smoke ? 256 : 1024;
    shape.clients.assign(3, ClientMix{QueryKind::kKsp, kspdg::kBackendKspDg});
    shape.update_period_ms = smoke ? 50 : 1000;
  } else if (name == "traffic-churn") {
    shape.vertices = smoke ? 512 : 4096;
    shape.clients = {{QueryKind::kKsp, kspdg::kBackendFindKsp},
                     {QueryKind::kShortestPath, kspdg::kBackendCands},
                     {QueryKind::kDiverseKsp, kspdg::kBackendFindKsp}};
    shape.update_period_ms = 0;
  } else if (name == "remote-batch") {
    shape.vertices = smoke ? 256 : 1024;
    shape.remote = true;
    // A batch and its traffic commit take about 1 s on a 4-vCPU host.
    shape.query_batches_per_s = smoke ? 15 : 1;
  } else {
    return std::nullopt;
  }
  return shape;
}

kspdg::RoutingOptions ServiceDefaults(const WorkloadShape&) {
  kspdg::RoutingOptions defaults;
  defaults.k = kTopK;
  defaults.backend = kspdg::kBackendKspDg;
  defaults.diversity.theta = 0.5;
  defaults.diversity.overfetch = 4;
  return defaults;
}

kspdg::TrafficModelOptions TrafficOptions(uint64_t seed) {
  kspdg::TrafficModelOptions options;
  options.alpha = 0.35;
  options.tau = 0.30;
  options.seed = seed;
  return options;
}

TrafficReplay::TrafficReplay(const Graph& graph, const TrafficLog& log)
    : model_(graph, TrafficOptions(log.seed)), log_(&log) {}

std::vector<WeightUpdate> TrafficReplay::Next() {
  const uint32_t wanted = log_->applied.at(epoch_++);
  while (generated_ < wanted) {
    (void)model_.NextBatch();  // a batch the service rejected
    ++generated_;
  }
  ++generated_;
  return model_.NextBatch();
}

uint64_t CounterSum(const MetricsSnapshot& snapshot, const std::string& name,
                    const kspdg::MetricLabels& labels) {
  uint64_t total = 0;
  for (const kspdg::CounterSample& s : snapshot.counters) {
    if (s.name != name) continue;
    bool match = std::all_of(labels.begin(), labels.end(), [&](const auto& l) {
      return std::find(s.labels.begin(), s.labels.end(), l) != s.labels.end();
    });
    if (match) total += s.value;
  }
  return total;
}

double HistogramSum(const MetricsSnapshot& snapshot, const std::string& name) {
  double total = 0;
  for (const kspdg::HistogramSample& h : snapshot.histograms) {
    if (h.name == name) total += h.sum;
  }
  return total;
}

size_t RemoteQueryBatches(const WorkloadShape& shape, double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds * shape.query_batches_per_s)));
}

kspdg::Result<LoadRun> RunLoad(const WorkloadShape& shape, const Graph& graph,
                               uint64_t seed, double seconds, size_t setups,
                               const std::string& socket_dir,
                               const std::string& spool_dir, Tracer* tracer) {
  LoadRun run;
  std::unique_ptr<RoutingServiceInterface> service;
  for (size_t i = 0; i < setups; ++i) {
    service.reset();  // one fleet at a time
    kspdg::WallTimer timer;
    ScopedSpan span(tracer, "api.create", 0, 0);
    auto created = CreateService(shape, graph, socket_dir);
    if (!created.ok()) return created.status();
    service = std::move(created).value();
    run.setup_s.push_back(timer.ElapsedSeconds());
  }

  const std::vector<std::pair<kspdg::VertexId, kspdg::VertexId>> pairs =
      kspdg::MakeRandomQueries(graph, kNumPairs, seed);
  run.traffic.seed = seed * 0x9E3779B97F4A7C15ull + 1;
  kspdg::TrafficModel traffic(graph, TrafficOptions(run.traffic.seed));
  uint32_t generated = 0;  // NextBatch() calls so far

  kspdg::Mutex mu{"servebench::RunLoad::mu"};  // guards run's vectors
  std::atomic<uint64_t> next_request{0};
  std::atomic<size_t> next_pair{0};

  // Warm-up: query cost grows over the first few traffic batches (DTLP
  // lower bounds loosen) before it levels off, so the window starts after
  // kWarmupBatches, in the steady state a long-running service is in.
  for (size_t i = 0; i < kWarmupBatches; ++i) {
    std::vector<WeightUpdate> batch = traffic.NextBatch();
    auto applied = service->ApplyTrafficBatch(batch);
    if (!applied.ok()) return applied.status();
    run.traffic.applied.push_back(generated++);
  }

  run.before = Scrape(*service, tracer, mu, run.scrape_ms);
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  // Applies one traffic batch due at `due`; records it and, on success,
  // its place in the traffic log for the oracle's epoch replay.
  auto apply_batch = [&](Clock::time_point due) {
    std::vector<WeightUpdate> batch = traffic.NextBatch();
    const uint32_t index = generated++;
    UpdateRecord record;
    record.updates = batch.size();
    std::optional<MetricsSnapshot> pre;
    if (tracer != nullptr) pre = Scrape(*service, tracer, mu, run.scrape_ms);
    Clock::time_point call = Clock::now();
    kspdg::Result<kspdg::TrafficBatchResult> result = kspdg::Status::OK();
    {
      ScopedSpan span(tracer, "api.apply", 0, 0);
      result = service->ApplyTrafficBatch(batch);
    }
    Clock::time_point end = Clock::now();
    if (pre.has_value()) {
      MetricsSnapshot post = Scrape(*service, tracer, mu, run.scrape_ms);
      record.writer_wait_ms =
          (HistogramSum(post, "epoch_writer_wait_micros") -
           HistogramSum(*pre, "epoch_writer_wait_micros")) /
          1e3;
    }
    record.latency_ms = MsBetween(due, end);
    record.call_ms = MsBetween(call, end);
    record.late_ms = MsBetween(due, call);
    record.status = result.status();
    if (result.ok()) record.result = result.value();
    kspdg::MutexLock lock(mu);
    if (result.ok()) run.traffic.applied.push_back(index);
    run.updates.push_back(std::move(record));
  };

  auto make_request = [&](const ClientMix& mix) {
    auto [s, t] = pairs[next_pair.fetch_add(1) % pairs.size()];
    RouteRequest request;
    request.kind = mix.kind;
    request.source = s;
    request.target = t;
    request.options.backend = mix.backend;
    return request;
  };

  auto record_answer = [](const RouteRequest& request, uint64_t id,
                          double latency_ms, kspdg::Status status,
                          kspdg::RouteResponse response) {
    Answer answer;
    answer.request_id = id;
    answer.kind = request.kind;
    answer.source = request.source;
    answer.target = request.target;
    answer.backend = request.options.backend.value_or(kspdg::kBackendKspDg);
    answer.latency_ms = latency_ms;
    answer.status = std::move(status);
    answer.response = std::move(response);
    return answer;
  };

  // One spool per client thread.
  const size_t num_clients =
      shape.remote ? 1
                   : std::min<size_t>(shape.clients.size(),
                                      std::max(1u, UsableCpus() - 1));
  std::vector<std::string> spool_paths;
  std::vector<std::unique_ptr<AnswerSpool>> spools;
  for (size_t c = 0; c < num_clients; ++c) {
    spool_paths.push_back(spool_dir + "/answers-" + shape.name + "-" +
                          std::to_string(c) + ".bin");
    spools.push_back(std::make_unique<AnswerSpool>(spool_paths.back()));
  }

  std::vector<std::thread> threads;
  if (shape.remote) {
    // One client: a batch of Nq queries per SubmitBatch, waiting for each
    // ticket; after each, the writer's turn comes.
    run.load_threads = 1;
    threads.emplace_back([&] {
      const ClientMix mix{QueryKind::kKsp, kspdg::kBackendKspDg};
      AnswerSpool& spool = *spools[0];
      for (size_t b = 0, n = RemoteQueryBatches(shape, seconds); b < n; ++b) {
        std::vector<RouteRequest> requests;
        std::vector<uint64_t> ids;
        for (size_t i = 0; i < kBatchSize; ++i) {
          requests.push_back(make_request(mix));
          ids.push_back(next_request.fetch_add(1) + 1);
        }
        const std::vector<RouteRequest> sent = requests;
        Clock::time_point t0 = Clock::now();
        BatchRecord record;
        record.first_request = ids.front();
        record.items = sent.size();
        {
          ScopedSpan span(tracer, "api.submit_batch", 0, ids.front());
          kspdg::BatchTicket ticket = service->SubmitBatch(std::move(requests));
          const kspdg::Result<kspdg::RouteBatchResponse>& result =
              ticket.Wait();
          record.latency_ms = MsBetween(t0, Clock::now());
          record.ok = result.ok();
          for (size_t i = 0; i < sent.size(); ++i) {
            if (!result.ok()) {
              spool.Write(record_answer(sent[i], ids[i], record.latency_ms,
                                        result.status(), {}));
              continue;
            }
            const kspdg::RouteBatchItem& item = result.value().items[i];
            spool.Write(record_answer(sent[i], ids[i], record.latency_ms,
                                      item.status, item.response));
          }
          if (result.ok()) record.batch_micros = result.value().batch_micros;
        }
        {
          kspdg::MutexLock lock(mu);
          run.batches.push_back(record);
        }
        apply_batch(Clock::now());
      }
    });
  } else {
    run.load_threads = static_cast<unsigned>(num_clients) + 1;
    for (size_t c = 0; c < num_clients; ++c) {
      // With fewer CPUs than clients, the first clients' mixes run.
      const ClientMix mix = shape.clients[c];
      AnswerSpool* spool = spools[c].get();
      threads.emplace_back([&, mix, spool] {
        while (Clock::now() < deadline) {
          RouteRequest request = make_request(mix);
          uint64_t id = next_request.fetch_add(1) + 1;
          Clock::time_point t0 = Clock::now();
          kspdg::Result<kspdg::RouteResponse> result = kspdg::Status::OK();
          {
            ScopedSpan span(tracer, "api.query", 0, id);
            result = service->Query(request);
          }
          double latency_ms = MsBetween(t0, Clock::now());
          spool->Write(record_answer(
              request, id, latency_ms, result.status(),
              result.ok() ? std::move(result).value()
                          : kspdg::RouteResponse{}));
        }
      });
    }
    threads.emplace_back([&] {
      if (shape.update_period_ms <= 0) {
        while (Clock::now() < deadline) apply_batch(Clock::now());
        return;
      }
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(shape.update_period_ms));
      for (size_t i = 1;; ++i) {
        Clock::time_point due = start + period * static_cast<long>(i);
        if (due >= deadline) break;
        std::this_thread::sleep_until(due);
        apply_batch(due);
      }
    });
  }
  if (!shape.remote) PinLoadThreads(threads);
  for (std::thread& t : threads) t.join();
  run.window_s = MsBetween(start, Clock::now()) / 1e3;
  run.cpu_s = ProcessCpuSeconds() - cpu_start;
  run.peak_rss_mb = PeakRssMb();
  run.scrapes_in_window = run.scrape_ms.size();
  run.after = Scrape(*service, tracer, mu, run.scrape_ms);
  run.scrape_pair_first = Scrape(*service, tracer, mu, run.scrape_ms);
  run.scrape_pair_second = Scrape(*service, tracer, mu, run.scrape_ms);
  size_t spooled = 0;
  for (size_t c = 0; c < num_clients; ++c) {
    spooled += spools[c]->bytes();
    if (!spools[c]->Close() || !ReadSpool(spool_paths[c], run.answers)) {
      return kspdg::Status::IOError("answer spool " + spool_paths[c] +
                                    " could not be written or read back");
    }
    std::remove(spool_paths[c].c_str());
  }
  run.answer_spool_mb = static_cast<double>(spooled) / (1024.0 * 1024.0);
  std::sort(run.answers.begin(), run.answers.end(),
            [](const Answer& a, const Answer& b) {
              return a.request_id < b.request_id;
            });
  return run;
}

kspdg::Result<std::vector<double>> ReplayBatchesInProcess(
    const WorkloadShape& shape, const Graph& graph, const LoadRun& run) {
  WorkloadShape in_process = shape;
  in_process.remote = false;
  auto created = CreateService(in_process, graph, "");
  if (!created.ok()) return created.status();
  std::unique_ptr<RoutingServiceInterface> service =
      std::move(created).value();
  TrafficReplay traffic(graph, run.traffic);
  std::vector<double> ratios;
  size_t next = 0;  // answers are sorted by request id
  for (const BatchRecord& b : run.batches) {
    while (next < run.answers.size() &&
           run.answers[next].request_id < b.first_request) {
      ++next;
    }
    std::vector<RouteRequest> requests;
    std::optional<uint64_t> epoch;
    for (size_t i = next; i < next + b.items && i < run.answers.size(); ++i) {
      const Answer& a = run.answers[i];
      RouteRequest request;
      request.kind = a.kind;
      request.source = a.source;
      request.target = a.target;
      request.options.backend = a.backend;
      requests.push_back(request);
      if (a.status.ok()) epoch = a.response.epoch;
    }
    if (!b.ok || !epoch.has_value() || *epoch > run.traffic.size()) continue;
    while (service->CurrentEpoch() < *epoch) {
      auto applied = service->ApplyTrafficBatch(traffic.Next());
      if (!applied.ok()) return applied.status();
    }
    Clock::time_point t0 = Clock::now();
    kspdg::BatchTicket ticket = service->SubmitBatch(std::move(requests));
    if (!ticket.Wait().ok()) return ticket.Wait().status();
    const double in_process_ms = MsBetween(t0, Clock::now());
    if (in_process_ms > 0) ratios.push_back(b.latency_ms / in_process_ms);
  }
  return ratios;
}

}  // namespace servebench
