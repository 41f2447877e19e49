#include "replay.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "cands/cands.h"
#include "core/mutex.h"
#include "core/timer.h"
#include "env.h"
#include "ksp/dijkstra.h"
#include "ksp/findksp.h"
#include "ksp/yen.h"
#include "kspdg/partial_provider.h"
#include "kspdg/query_context.h"
#include "mfp/diversity.h"

namespace servebench {

using kspdg::Dtlp;
using kspdg::Graph;
using kspdg::Path;
using kspdg::QueryKind;
using kspdg::WeightUpdate;
using Traffic = TrafficLog;

namespace {

/// A private copy of the weights (and optionally a DTLP over them) that
/// moves forward one traffic batch at a time. Never moved once built: the
/// DTLP keeps a pointer to `graph`.
struct Replica {
  Replica(const Graph& pristine, const Traffic& traffic)
      : graph(pristine), batches(pristine, traffic) {}

  Graph graph;
  TrafficReplay batches;
  std::unique_ptr<Dtlp> dtlp;
  uint64_t epoch = 0;

  void AdvanceTo(uint64_t target) {
    for (; epoch < target; ++epoch) {
      std::vector<WeightUpdate> batch = batches.Next();
      for (const WeightUpdate& u : batch) graph.SetWeight(u);
      if (dtlp != nullptr) dtlp->ApplyUpdates(batch);
    }
  }
};

/// Runs fn(replica, answer) for every answer whose epoch the traffic log
/// covers, on ReplayThreads() workers. Answers are handed out in epoch
/// order from one shared cursor, so each worker sees non-decreasing epochs
/// and only ever moves its own replica forward.
template <typename Fn>
void ForEachAtEpoch(const Graph& graph, const Traffic& traffic,
                    std::vector<const Answer*> answers,
                    const kspdg::DtlpOptions* dtlp_options, Fn fn) {
  std::sort(answers.begin(), answers.end(),
            [](const Answer* a, const Answer* b) {
              if (a->response.epoch != b->response.epoch) {
                return a->response.epoch < b->response.epoch;
              }
              return a->request_id < b->request_id;
            });
  std::atomic<size_t> cursor{0};
  const size_t workers =
      std::min<size_t>(ReplayThreads(), std::max<size_t>(answers.size(), 1));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      std::unique_ptr<Replica> replica;
      for (size_t i = cursor.fetch_add(1); i < answers.size();
           i = cursor.fetch_add(1)) {
        if (replica == nullptr) {
          replica = std::make_unique<Replica>(graph, traffic);
          if (dtlp_options != nullptr) {
            replica->dtlp =
                Dtlp::Build(replica->graph, *dtlp_options).value();
          }
        }
        replica->AdvanceTo(answers[i]->response.epoch);
        fn(*replica, *answers[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// "" when `p` is a simple s-t route of `g` whose length is its stated
/// distance; otherwise what is wrong with it.
std::string RouteProblem(const Graph& g, const Path& p, kspdg::VertexId s,
                         kspdg::VertexId t) {
  if (p.vertices.empty() || p.Source() != s || p.Target() != t) {
    return "route does not join s to t";
  }
  if (!kspdg::IsSimpleRoute(p.vertices)) return "route is not simple";
  if (!kspdg::IsValidRoute(g, p.vertices)) return "route uses a non-edge";
  kspdg::Weight actual = kspdg::RouteDistance(g, p.vertices);
  if (!kspdg::WeightsEqual(actual, p.distance)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "stated distance %.4f but route is %.4f",
                  p.distance, actual);
    return buf;
  }
  return "";
}

/// "" when `got` has the reference's distances in order and every route is
/// valid; otherwise the first difference. `*truncated` tells whether the
/// difference fits the truncation class (see OracleResult::wrong_truncated).
std::string CompareToReference(const Graph& g, const Answer& a,
                               const std::vector<Path>& got,
                               const std::vector<Path>& want,
                               bool* truncated) {
  *truncated = false;
  for (size_t i = 0; i < got.size(); ++i) {
    std::string problem = RouteProblem(g, got[i], a.source, a.target);
    if (!problem.empty()) return "path " + std::to_string(i + 1) + ": " + problem;
    for (size_t j = 0; j < i; ++j) {
      if (got[j].vertices == got[i].vertices) {
        return "path " + std::to_string(i + 1) + " repeats path " +
               std::to_string(j + 1);
      }
    }
  }
  char buf[160];
  bool sorted = true, below_reference = false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && got[i].distance < got[i - 1].distance &&
        !kspdg::WeightsEqual(got[i].distance, got[i - 1].distance)) {
      sorted = false;
    }
    if (i < want.size() && got[i].distance < want[i].distance &&
        !kspdg::WeightsEqual(got[i].distance, want[i].distance)) {
      below_reference = true;
    }
  }
  std::string problem;
  if (got.size() != want.size()) {
    std::snprintf(buf, sizeof(buf), "%zu paths, reference has %zu",
                  got.size(), want.size());
    problem = buf;
  } else {
    for (size_t i = 0; i < got.size(); ++i) {
      if (!kspdg::WeightsEqual(got[i].distance, want[i].distance)) {
        std::snprintf(buf, sizeof(buf),
                      "path %zu distance %.4f, reference %.4f", i + 1,
                      got[i].distance, want[i].distance);
        problem = buf;
        break;
      }
    }
  }
  if (!problem.empty() && !sorted) problem += ", not in ascending order";
  *truncated = !problem.empty() && sorted && !below_reference &&
               got.size() <= want.size() && !got.empty();
  return problem;
}

double TimedMs(Tracer* tracer, const char* name, uint64_t request,
               const std::function<void()>& fn) {
  kspdg::WallTimer timer;
  {
    ScopedSpan span(tracer, name, 0, request);
    fn();
  }
  return timer.ElapsedMillis();
}

bool SamePaths(const std::vector<Path>& a, const std::vector<Path>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertices != b[i].vertices || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

/// LocalPartialProvider with a "kspdg.partials" span around every call,
/// parented to the candidates span that asked for it.
class TimingPartialProvider : public kspdg::PartialProvider {
 public:
  TimingPartialProvider(const Dtlp& dtlp, Tracer* tracer, uint64_t request)
      : inner_(dtlp), tracer_(tracer), request_(request) {}

  kspdg::PartialResult ComputePartials(kspdg::VertexId x, kspdg::VertexId y,
                                       size_t depth) override {
    ScopedSpan span(tracer_, "kspdg.partials", parent_, request_);
    ++calls_;
    return inner_.ComputePartials(x, y, depth);
  }

  void set_parent(uint64_t parent) { parent_ = parent; }
  size_t calls() const { return calls_; }

 private:
  kspdg::LocalPartialProvider inner_;
  Tracer* tracer_;
  uint64_t request_;
  uint64_t parent_ = 0;
  size_t calls_ = 0;
};

/// Algorithm 3 exactly as RunKspDgQuery runs it, with a span around each
/// stage. Fills the replay's counters; returns the top-k paths.
std::vector<Path> InstrumentedKspDg(const Dtlp& dtlp, kspdg::VertexId s,
                                   kspdg::VertexId t,
                                   const kspdg::KspDgOptions& options,
                                   Tracer* tracer, uint64_t parent,
                                   uint64_t request, KspDgReplay* out) {
  std::vector<Path> top;
  if (s == t) {
    top.push_back(Path{{s}, 0});
    return top;
  }
  TimingPartialProvider provider(dtlp, tracer, request);
  kspdg::QueryContext ctx(dtlp, &provider, s, t, options);
  bool attached = false;
  {
    ScopedSpan span(tracer, "kspdg.overlay", parent, request);
    attached = ctx.BuildOverlay();
  }
  if (!attached) return top;
  std::optional<kspdg::YenEnumerator<kspdg::SkeletonOverlay>> references;
  std::optional<Path> ref;
  {
    ScopedSpan span(tracer, "kspdg.reference_paths", parent, request);
    references.emplace(ctx.overlay(), ctx.overlay_s(), ctx.overlay_t());
    ref = references->NextPath();
  }
  bool stopped = false;  // left the loop by its own test, not the cap
  while (ref.has_value() && ctx.stats().iterations < options.max_iterations) {
    ++ctx.stats().iterations;
    std::vector<Path> candidates;
    {
      ScopedSpan span(tracer, "kspdg.candidates", parent, request);
      provider.set_parent(span.id());
      candidates = ctx.CandidateKsp(ref->vertices);
    }
    for (Path& c : candidates) kspdg::InsertTopK(top, std::move(c), options.k);
    std::optional<Path> next;
    {
      ScopedSpan span(tracer, "kspdg.reference_paths", parent, request);
      next = references->NextPath();
    }
    bool done = top.size() == options.k &&
                (!next.has_value() ||
                 top.back().distance <= next->distance + kspdg::kWeightEpsilon);
    if (done || !next.has_value()) {
      stopped = true;
      break;
    }
    ref = std::move(next);
  }
  const kspdg::KspDgQueryStats& stats = ctx.stats();
  out->iterations = stats.iterations;
  out->cap_hit = !stopped && ref.has_value();
  out->partial_fetches = provider.calls();
  out->partial_cache_hits = stats.partial_cache_hits;
  out->subgraph_yen_runs = stats.partial_ksp_computations;
  out->candidates = stats.candidates_generated;
  out->paths = top.size();
  return top;
}

}  // namespace

unsigned ReplayThreads() { return std::min(4u, UsableCpus()); }

OracleResult CheckAnswers(const Graph& graph, const Traffic& traffic,
                          const std::vector<Answer>& answers,
                          const kspdg::RoutingOptions& defaults,
                          bool time_findksp, Tracer* tracer) {
  OracleResult result;
  kspdg::Mutex mu{"servebench::CheckAnswers::mu"};
  auto wrong = [&](const Answer& a, const std::string& why, bool truncated) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "request %llu %s (%u, %u) epoch %llu: ",
                  static_cast<unsigned long long>(a.request_id),
                  kspdg::QueryKindName(a.kind), a.source, a.target,
                  static_cast<unsigned long long>(a.response.epoch));
    kspdg::MutexLock lock(mu);
    ++result.wrong;
    if (truncated && a.backend == kspdg::kBackendKspDg) {
      ++result.wrong_truncated;
    }
    if (result.wrong_examples.size() < 8) {
      result.wrong_examples.push_back(buf + why);
    }
  };

  std::vector<const Answer*> replayable;
  for (const Answer& a : answers) {
    if (!a.status.ok()) continue;
    ++result.checked;
    if (a.backend == kspdg::kBackendKspDg) ++result.checked_kspdg;
    if (a.response.epoch > traffic.size()) {
      wrong(a, "epoch beyond the applied traffic batches", false);
      continue;
    }
    replayable.push_back(&a);
  }

  ForEachAtEpoch(graph, traffic, replayable, nullptr,
                 [&](Replica& replica, const Answer& a) {
    const Graph& g = replica.graph;
    const uint64_t id = a.request_id;
    const std::vector<Path>& got = a.response.paths;
    std::vector<Path> want;
    std::optional<double> yen_ms, findksp_ms, select_ms;
    std::optional<double> kept_ratio;
    switch (a.kind) {
      case QueryKind::kKsp: {
        yen_ms = TimedMs(tracer, "ksp.yen", id, [&] {
          want = kspdg::YenKspInGraph(g, a.source, a.target, a.response.k);
        });
        if (time_findksp) {
          findksp_ms = TimedMs(tracer, "ksp.findksp", id, [&] {
            (void)kspdg::FindKsp(g, a.source, a.target, a.response.k);
          });
        }
        break;
      }
      case QueryKind::kShortestPath: {
        std::optional<Path> best =
            kspdg::ShortestPathInGraph(g, a.source, a.target);
        if (best.has_value()) want.push_back(std::move(*best));
        break;
      }
      case QueryKind::kDiverseKsp: {
        const uint32_t overfetch = defaults.diversity.overfetch;
        std::vector<Path> reference = kspdg::YenKspInGraph(
            g, a.source, a.target, size_t{a.response.k} * overfetch);
        kspdg::DiverseStats stats;
        select_ms = TimedMs(tracer, "mfp.select", id, [&] {
          stats = kspdg::SelectDiversePaths(reference, a.response.k,
                                            g.directed(), defaults.diversity,
                                            &want);
        });
        if (stats.candidates > 0) {
          kept_ratio = static_cast<double>(stats.kept) / stats.candidates;
        }
        break;
      }
    }
    bool truncated = false;
    std::string problem = CompareToReference(g, a, got, want, &truncated);
    if (!problem.empty()) {
      if (a.backend == kspdg::kBackendKspDg) {
        problem += " (" +
                   std::to_string(a.response.stats.engine.iterations) +
                   " KSP-DG iterations)";
      }
      wrong(a, problem, truncated);
    }
    kspdg::MutexLock lock(mu);
    if (yen_ms) result.yen_ms[id] = *yen_ms;
    if (findksp_ms) result.findksp_ms[id] = *findksp_ms;
    if (select_ms) result.select_ms[id] = *select_ms;
    if (kept_ratio) result.kept_ratio.push_back(*kept_ratio);
  });
  return result;
}

LayerReplay ReplayLayers(const Graph& graph, const Traffic& traffic,
                         const kspdg::DtlpOptions& dtlp_options,
                         const kspdg::RoutingOptions& defaults,
                         const std::vector<const Answer*>& kspdg_answers,
                         Tracer* tracer) {
  LayerReplay out;
  // dtlp: Algorithm 1 three times, then Algorithm 2 over every batch.
  Replica dtlp_replica(graph, traffic);
  for (int i = 0; i < 3; ++i) {
    out.dtlp_build_ms.push_back(TimedMs(tracer, "dtlp.build", 0, [&] {
      dtlp_replica.dtlp = Dtlp::Build(dtlp_replica.graph, dtlp_options).value();
    }));
  }
  out.dtlp_index_mb = static_cast<double>(dtlp_replica.dtlp->EpIndexMemoryBytes() +
                                          dtlp_replica.dtlp->SkeletonMemoryBytes()) /
                      (1024.0 * 1024.0);
  for (size_t i = 0; i < traffic.size(); ++i) {
    std::vector<WeightUpdate> batch = dtlp_replica.batches.Next();
    for (const WeightUpdate& u : batch) dtlp_replica.graph.SetWeight(u);
    out.dtlp_apply_ms.push_back(TimedMs(tracer, "dtlp.apply", 0, [&] {
      dtlp_replica.dtlp->ApplyUpdates(batch);
    }));
  }
  dtlp_replica.dtlp.reset();

  // cands: the baseline index over the same partition size.
  {
    kspdg::CandsOptions cands_options;
    cands_options.partition = dtlp_options.partition;
    std::unique_ptr<kspdg::CandsIndex> cands;
    out.cands_build_ms = TimedMs(tracer, "cands.build", 0, [&] {
      cands = kspdg::CandsIndex::Build(graph, cands_options).value();
    });
    out.cands_index_mb =
        static_cast<double>(cands->MemoryBytes()) / (1024.0 * 1024.0);
  }

  // kspdg: every selected answer, twice, at its epoch. Which of the two
  // runs goes first alternates, so neither always finds warm caches.
  const kspdg::KspDgOptions engine = defaults.ToEngineOptions();
  kspdg::Mutex mu{"servebench::ReplayLayers::mu"};
  ForEachAtEpoch(graph, traffic, kspdg_answers, &dtlp_options,
                 [&](Replica& replica, const Answer& a) {
    const uint64_t id = a.request_id;
    KspDgReplay replay;
    replay.request_id = id;
    std::vector<Path> engine_paths, replay_paths;
    auto run_engine = [&] {
      ScopedSpan span(tracer, "kspdg.query", 0, id);
      kspdg::LocalPartialProvider provider(*replica.dtlp);
      engine_paths = kspdg::RunKspDgQuery(*replica.dtlp, &provider, a.source,
                                          a.target, engine)
                         .paths;
    };
    auto run_replay = [&] {
      ScopedSpan span(tracer, "kspdg.replay", 0, id);
      replay_paths = InstrumentedKspDg(*replica.dtlp, a.source, a.target,
                                       engine, tracer, span.id(), id, &replay);
    };
    if (id % 2 == 0) {
      run_engine();
      run_replay();
    } else {
      run_replay();
      run_engine();
    }
    std::string drift;
    if (!SamePaths(replay_paths, engine_paths)) {
      drift = "replay differs from RunKspDgQuery";
    } else if (a.backend == kspdg::kBackendKspDg &&
               !SamePaths(replay_paths, a.response.paths)) {
      drift = "replay differs from the service's answer";
    }
    replay.drift = !drift.empty();
    kspdg::MutexLock lock(mu);
    if (replay.drift && out.drift_examples.size() < 8) {
      out.drift_examples.push_back("request " + std::to_string(id) + ": " +
                                   drift);
    }
    out.kspdg.push_back(replay);
  });
  return out;
}

}  // namespace servebench
