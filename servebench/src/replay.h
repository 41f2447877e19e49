// Offline replays made after the measured window, against the same traffic
// batches the service applied:
//
//   CheckAnswers   the correctness oracle: every OK answer is recomputed
//                  by a reference algorithm at the answer's epoch.
//   ReplayLayers   standalone DTLP and CANDS builds and updates, and the
//                  KSP-DG stage split: Algorithm 3 re-run from the public
//                  pieces (QueryContext, YenEnumerator, InsertTopK) with a
//                  span around every stage.
#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/routing_options.h"
#include "dtlp/dtlp.h"
#include "graph/graph.h"
#include "load.h"
#include "trace.h"

namespace servebench {

struct OracleResult {
  size_t checked = 0;
  /// OK answers that differ from the reference.
  size_t wrong = 0;
  /// OK answers from the kspdg backend.
  size_t checked_kspdg = 0;
  /// The part of `wrong` that fits the known truncation defect: KSP-DG
  /// returns whatever top-k list it holds, with an OK status, when
  /// max_iterations or join_refetch_rounds runs out. Such an answer is a
  /// kspdg-backend answer whose routes are all valid, distinct, ascending
  /// and at their stated distances, with at least one and no more paths
  /// than the reference, and none shorter than the reference's path of the
  /// same rank. Any
  /// other wrong answer is outside the known defect.
  size_t wrong_truncated = 0;
  /// A description of the first few wrong answers.
  std::vector<std::string> wrong_examples;
  /// Reference timings per request id (ms).
  std::map<uint64_t, double> yen_ms;
  std::map<uint64_t, double> findksp_ms;
  std::map<uint64_t, double> select_ms;
  /// kDiverseKsp: routes kept / reference candidates, per answer.
  std::vector<double> kept_ratio;
};

/// Rechecks every OK answer at its epoch: kKsp against Yen's k distances
/// (within kWeightEpsilon, relative), kShortestPath against Dijkstra,
/// kDiverseKsp against SelectDiversePaths over Yen's k' list. Every
/// returned route must also be a simple s-t path whose length matches its
/// stated distance. `time_findksp` also times FindKsp on every kKsp pair.
OracleResult CheckAnswers(const kspdg::Graph& graph,
                          const TrafficLog& traffic,
                          const std::vector<Answer>& answers,
                          const kspdg::RoutingOptions& defaults,
                          bool time_findksp, Tracer* tracer);

/// Per-query outcome of the KSP-DG replay.
struct KspDgReplay {
  uint64_t request_id = 0;
  uint32_t iterations = 0;
  bool cap_hit = false;
  /// The replay's paths differ from RunKspDgQuery's or from the service's
  /// kspdg answer.
  bool drift = false;
  size_t partial_fetches = 0;  // provider calls (cache misses)
  size_t partial_cache_hits = 0;
  size_t subgraph_yen_runs = 0;
  size_t candidates = 0;
  size_t paths = 0;
};

struct LayerReplay {
  std::vector<double> dtlp_build_ms;
  std::vector<double> dtlp_apply_ms;
  double dtlp_index_mb = 0;
  double cands_build_ms = 0;
  double cands_index_mb = 0;
  std::vector<KspDgReplay> kspdg;
  std::vector<std::string> drift_examples;
};

/// Standalone DTLP build (3 times) and a replay of every traffic batch;
/// a standalone CANDS build; then every answer in `kspdg_answers` re-run
/// twice at its epoch on a standalone DTLP, single-threaded per query:
/// once through RunKspDgQuery ("kspdg.query" span) and once through the
/// instrumented Algorithm 3 ("kspdg.replay" with overlay, reference_paths,
/// candidates and partials children). Needs a tracer.
LayerReplay ReplayLayers(const kspdg::Graph& graph,
                         const TrafficLog& traffic,
                         const kspdg::DtlpOptions& dtlp_options,
                         const kspdg::RoutingOptions& defaults,
                         const std::vector<const Answer*>& kspdg_answers,
                         Tracer* tracer);

/// Worker threads the offline replays use.
unsigned ReplayThreads();

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
