// The three serving workloads and the load generator that drives them.
//
// Load comes from this one process, through RoutingServiceInterface only:
// closed-loop clients calling Query (or SubmitBatch) and one writer calling
// ApplyTrafficBatch. The generator records what each call returned, as the
// client saw it; checking those answers happens afterwards (replay.h).
#ifndef SERVEBENCH_LOAD_H_
#define SERVEBENCH_LOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/routing_options.h"
#include "api/routing_service_interface.h"
#include "core/status.h"
#include "graph/graph.h"
#include "graph/traffic_model.h"
#include "obs/metrics.h"
#include "trace.h"

namespace servebench {

/// One closed-loop client's request mix.
struct ClientMix {
  kspdg::QueryKind kind = kspdg::QueryKind::kKsp;
  std::string backend;
};

/// Every workload asks for the k = 4 shortest paths.
constexpr uint32_t kTopK = 4;
/// remote-batch: items per SubmitBatch. One traffic batch follows each.
constexpr size_t kBatchSize = 8;
/// Distinct (s, t) pairs in the seeded request list.
constexpr size_t kNumPairs = 4096;

/// Everything that defines a workload except its seed and length.
struct WorkloadShape {
  std::string name;
  /// NY-S scaled to about this many vertices.
  size_t vertices = 0;
  /// Subgraph size z (the dataset's default).
  uint32_t z = 0;
  /// RemoteShardedRoutingService with 2 shard workers instead of the
  /// in-process RoutingService.
  bool remote = false;
  /// Query clients, one closed-loop thread each (in-process workloads).
  std::vector<ClientMix> clients;
  /// Writer schedule: a traffic batch is due every update_period_ms (open
  /// loop); 0 applies batches back to back (closed loop).
  double update_period_ms = 0;
  /// Remote only: the window is a count of query batches, not a clock,
  /// this many per second asked for. One seed and length then always give
  /// the same requests at the same epochs, so repeats agree on `attempted`
  /// and on which answers the oracle rejects.
  double query_batches_per_s = 0;
};

/// Shape of a named workload, or nullopt for an unknown name. `smoke`
/// shrinks the graph for the self-test.
std::optional<WorkloadShape> ShapeFor(const std::string& name, bool smoke);
std::vector<std::string> WorkloadNames();

/// One request as the client saw it.
struct Answer {
  uint64_t request_id = 0;
  kspdg::QueryKind kind = kspdg::QueryKind::kKsp;
  kspdg::VertexId source = 0;
  kspdg::VertexId target = 0;
  std::string backend;
  /// Client latency: Query call to return, or SubmitBatch to fulfilled
  /// ticket for batch items.
  double latency_ms = 0;
  kspdg::Status status;
  /// Meaningful when status.ok().
  kspdg::RouteResponse response;
};

/// One traffic batch as the writer saw it.
struct UpdateRecord {
  /// From when the batch was due until ApplyTrafficBatch returned.
  double latency_ms = 0;
  /// ApplyTrafficBatch wall time alone.
  double call_ms = 0;
  /// How late the writer started the call relative to its schedule.
  double late_ms = 0;
  size_t updates = 0;
  kspdg::Status status;
  kspdg::TrafficBatchResult result;
  /// Traced runs only: delta of epoch_writer_wait_micros around the call.
  std::optional<double> writer_wait_ms;
};

/// One SubmitBatch as the client saw it (remote-batch).
struct BatchRecord {
  /// Request id of the first item; the items have consecutive ids.
  uint64_t first_request = 0;
  double latency_ms = 0;
  double batch_micros = 0;
  size_t items = 0;
  bool ok = false;
};

/// The traffic batches a window applied. They are regenerated on demand
/// from the model's seed rather than stored: a traffic-churn window applies
/// millions of weight updates, and keeping them would dominate peak RSS.
struct TrafficLog {
  uint64_t seed = 0;
  /// For each applied batch in epoch order, its index in the model's
  /// NextBatch() sequence (a rejected batch leaves a gap).
  std::vector<uint32_t> applied;
  size_t size() const { return applied.size(); }
};

/// Regenerates a TrafficLog's batches in epoch order.
class TrafficReplay {
 public:
  /// `graph` must be the pristine graph the log was generated against.
  TrafficReplay(const kspdg::Graph& graph, const TrafficLog& log);

  /// The batch that moves the next epoch forward (epoch 0 -> 1 first).
  std::vector<kspdg::WeightUpdate> Next();

 private:
  kspdg::TrafficModel model_;
  const TrafficLog* log_;
  size_t epoch_ = 0;
  uint32_t generated_ = 0;
};

/// The paper's default traffic model (α = 0.35, τ = 0.30) with `seed`.
kspdg::TrafficModelOptions TrafficOptions(uint64_t seed);

/// What one measured window produced.
struct LoadRun {
  std::vector<double> setup_s;
  std::vector<Answer> answers;
  std::vector<UpdateRecord> updates;
  std::vector<BatchRecord> batches;
  /// Applied traffic batches: batch i moved epoch i to i + 1.
  TrafficLog traffic;
  kspdg::MetricsSnapshot before;
  kspdg::MetricsSnapshot after;
  /// Wall time of each Metrics() call made by the generator.
  std::vector<double> scrape_ms;
  /// Metrics() calls between `before` and `after`, both included.
  size_t scrapes_in_window = 0;
  /// Counter deltas one scrape causes by itself (the remote scrape pings
  /// every worker), measured after the window with two back-to-back
  /// scrapes.
  kspdg::MetricsSnapshot scrape_pair_first;
  kspdg::MetricsSnapshot scrape_pair_second;
  double window_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  /// Bytes of answers the clients spooled to disk during the window.
  double answer_spool_mb = 0;
  /// Load-generating threads (clients plus writer).
  unsigned load_threads = 0;
};

/// Query batches in a remote window of `seconds`; at least one.
size_t RemoteQueryBatches(const WorkloadShape& shape, double seconds);

/// Runs one measured window of `shape` on a fresh service over `graph`:
/// `seconds` long, or RemoteQueryBatches() batches on the remote service.
/// The service is created `setups` times (all but the last are destroyed
/// at once) so set-up time is a median. The clients write their answers to
/// files in `spool_dir` as they arrive, so the benchmark's resident memory
/// does not grow with read throughput; they are read back into
/// LoadRun::answers after peak RSS is taken.
kspdg::Result<LoadRun> RunLoad(const WorkloadShape& shape,
                               const kspdg::Graph& graph, uint64_t seed,
                               double seconds, size_t setups,
                               const std::string& socket_dir,
                               const std::string& spool_dir, Tracer* tracer);

/// remote-batch's query batches re-submitted, each at its epoch, to an
/// in-process RoutingService over the same graph: per batch, the remote
/// ticket latency divided by the in-process one.
kspdg::Result<std::vector<double>> ReplayBatchesInProcess(
    const WorkloadShape& shape, const kspdg::Graph& graph, const LoadRun& run);

/// The service-wide defaults every workload serves with.
kspdg::RoutingOptions ServiceDefaults(const WorkloadShape& shape);

/// Sum of a counter's samples whose labels include every (key, value) of
/// `labels` (all samples when `labels` is empty).
uint64_t CounterSum(const kspdg::MetricsSnapshot& snapshot,
                    const std::string& name,
                    const kspdg::MetricLabels& labels = {});

/// Sum field of a histogram across label sets.
double HistogramSum(const kspdg::MetricsSnapshot& snapshot,
                    const std::string& name);

}  // namespace servebench

#endif  // SERVEBENCH_LOAD_H_
