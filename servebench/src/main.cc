// servebench: the repository's serving benchmark.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--out-dir DIR] [--socket-dir DIR] [--git-sha SHA]
//              [--smoke] [--corrupt-answer]
//
// Runs one workload (load.h) for S seconds, rechecks every answer against a
// reference at its epoch (replay.h), cross-checks the benchmark's own counts
// against the service's metrics registry, and prints every metric by name
// with its unit. With --trace 1 it also runs a second, traced window and
// the offline per-layer replays. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}, where the
// metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1) that BENCHMARK.json lists. A full report goes to --out-dir.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "env.h"
#include "load.h"
#include "replay.h"
#include "report.h"
#include "trace.h"
#include "workload/datasets.h"

namespace servebench {
namespace {

using kspdg::QueryKind;

/// The metrics the last output line carries, in BENCHMARK.json's order.
/// query_qps is reported but not on this line: on remote-batch its spread
/// across seeds is about 20 %, although repeats of one seed agree within a
/// few per cent (see README.md).
const std::vector<std::string> kEndToEndKeys = {"setup_s", "update_p50_ms",
                                                "peak_rss_mb"};
const std::vector<std::string> kPerLayerKeys = {
    "api.query_wait_ms",
    "api.solve_ms",
    "api.apply_self_ms",
    "core.writer_wait_ms",
    "core.queue_wait_ms",
    "dtlp.build_ms",
    "dtlp.apply_ms",
    "dtlp.subgraphs_touched",
    "dtlp.skeleton_pairs_refreshed",
    "dtlp.index_mb",
    "cands.rebuild_ms",
    "cands.pair_paths_recomputed",
    "cands.index_mb",
    "kspdg.query_ms",
    "kspdg.overlay_ms",
    "kspdg.reference_paths_ms",
    "kspdg.candidates_ms",
    "kspdg.partials_ms",
    "kspdg.join_self_ms",
    "kspdg.stage_coverage",
    "kspdg.iterations_per_k",
    "kspdg.cap_hits",
    "kspdg.partial_cache_hit_ratio",
    "kspdg.yen_runs_per_query",
    "kspdg.useful_candidate_ratio",
    "kspdg.replay_drift",
    "ksp.findksp_ms",
    "ksp.yen_ms",
    "ksp.kspdg_over_findksp",
    "mfp.select_ms",
    "rpc.calls_per_query",
    "rpc.bytes_per_query",
    "remote.partials_per_query",
    "remote.commit_ms",
    "obs.scrape_ms",
    "trace.overhead_ratio",
};

/// On traffic-churn no request reaches the kspdg backend; the kspdg layer
/// is measured there by replaying this many of its kKsp pairs through
/// KSP-DG offline.
constexpr size_t kChurnKspDgSample = 8;

/// Service creates in the untraced window; setup_s is their median.
constexpr size_t kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/out";
  std::string socket_dir = ".bench_build/sock";
  std::string git_sha;
  bool smoke = false;
  bool corrupt_answer = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (flag == "--corrupt-answer") {
      args->corrupt_answer = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--socket-dir") {
      args->socket_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

uint64_t Delta(const LoadRun& run, const std::string& name,
               const kspdg::MetricLabels& labels = {}) {
  return CounterSum(run.after, name, labels) -
         CounterSum(run.before, name, labels);
}

/// Counter delta of the window minus what its scrapes caused themselves.
double DeltaNetOfScrapes(const LoadRun& run, const std::string& name) {
  double per_scrape =
      static_cast<double>(CounterSum(run.scrape_pair_second, name) -
                          CounterSum(run.scrape_pair_first, name));
  return static_cast<double>(Delta(run, name)) -
         per_scrape * static_cast<double>(run.scrapes_in_window);
}

size_t OkAnswers(const LoadRun& run) {
  size_t ok = 0;
  for (const Answer& a : run.answers) ok += a.status.ok() ? 1 : 0;
  return ok;
}

/// The accounting cross-check: the benchmark's own counts against the
/// service's registry deltas. Returns the mismatches found.
std::vector<std::string> CheckAccounting(const LoadRun& run) {
  std::vector<std::string> problems;
  auto expect = [&](const std::string& what, uint64_t ours, uint64_t theirs) {
    if (ours != theirs) {
      problems.push_back(what + ": benchmark counted " + std::to_string(ours) +
                         ", registry says " + std::to_string(theirs));
    }
  };
  std::map<std::pair<std::string, std::string>, uint64_t> served;
  uint64_t ok = 0;
  for (const Answer& a : run.answers) {
    if (!a.status.ok()) continue;
    ++ok;
    ++served[{kspdg::QueryKindName(a.kind), a.response.backend}];
  }
  const uint64_t issued = run.answers.size();
  expect("issued requests vs queries_total + queries_rejected_total", issued,
         Delta(run, "queries_total") + Delta(run, "queries_rejected_total"));
  expect("answered items vs queries_ok_total", ok,
         Delta(run, "queries_ok_total"));
  for (const auto& [key, count] : served) {
    expect("served " + key.first + "/" + key.second + " vs queries_total",
           count,
           Delta(run, "queries_total",
                 {{"kind", key.first}, {"backend", key.second}}));
  }
  uint64_t batches = 0, updates = 0;
  for (const UpdateRecord& u : run.updates) {
    if (!u.status.ok()) continue;
    ++batches;
    updates += u.updates;
  }
  expect("applied batches vs traffic_batches_total", batches,
         Delta(run, "traffic_batches_total"));
  expect("applied updates vs weight_updates_total", updates,
         Delta(run, "weight_updates_total"));
  return problems;
}

/// Understates the first path's distance in the first answer that has a
/// path, so the self-test can see the oracle reject an answer outside the
/// known truncation class.
void CorruptOneAnswer(LoadRun& run) {
  for (Answer& a : run.answers) {
    if (!a.status.ok() || a.response.paths.empty()) continue;
    a.response.paths.front().distance -= 1;
    return;
  }
}

/// Share of kspdg answers the known truncation defect may account for
/// before the run counts as incorrect; the seed's rate is 1-3 %.
constexpr double kMaxTruncatedShare = 0.10;

/// The oracle's verdict on `correct`: every wrong answer fits the known
/// truncation class, and there are not so many that KSP-DG looks broken.
bool OracleAccepts(const OracleResult& oracle) {
  return oracle.wrong == oracle.wrong_truncated &&
         static_cast<double>(oracle.wrong_truncated) <=
             kMaxTruncatedShare * static_cast<double>(oracle.checked_kspdg);
}

struct Failures {
  uint64_t attempted = 0;
  uint64_t failed_requests = 0;
  uint64_t failed_updates = 0;
  uint64_t wrong = 0;
  uint64_t failed() const { return failed_requests + failed_updates + wrong; }
};

Failures CountFailures(const LoadRun& run, const OracleResult& oracle) {
  Failures f;
  f.attempted = run.answers.size() + run.updates.size();
  for (const Answer& a : run.answers) f.failed_requests += a.status.ok() ? 0 : 1;
  for (const UpdateRecord& u : run.updates) {
    f.failed_updates += u.status.ok() ? 0 : 1;
  }
  f.wrong = oracle.wrong;
  return f;
}

/// End-to-end metrics of an untraced window.
void EndToEnd(const WorkloadShape& shape, const LoadRun& run,
              const Failures& failures, Report& report) {
  report.Set("setup_s", "s", Median(run.setup_s));
  report.Set("query_qps", "1/s",
             static_cast<double>(OkAnswers(run)) / run.window_s);
  std::vector<double> query_ms;
  for (const Answer& a : run.answers) {
    if (a.status.ok()) query_ms.push_back(a.latency_ms);
  }
  std::vector<double> update_ms, batch_ms;
  double edge_updates = 0;
  for (const UpdateRecord& u : run.updates) {
    if (!u.status.ok()) continue;
    update_ms.push_back(u.latency_ms);
    edge_updates += static_cast<double>(u.updates);
  }
  for (const BatchRecord& b : run.batches) {
    if (b.ok) batch_ms.push_back(b.latency_ms);
  }
  const std::string no_query =
      "remote-batch answers through SubmitBatch; see batch_p50_ms";
  const std::string no_batch = "no SubmitBatch calls on this workload";
  if (shape.remote) {
    report.Absent("query_p50_ms", "ms", no_query);
    report.Absent("query_p95_ms", "ms", no_query);
    report.SetPercentile("batch_p50_ms", batch_ms, 0.50);
    report.SetPercentile("batch_p90_ms", batch_ms, 0.90);
  } else {
    report.SetPercentile("query_p50_ms", query_ms, 0.50);
    report.SetPercentile("query_p95_ms", query_ms, 0.95);
    report.Absent("batch_p50_ms", "ms", no_batch);
    report.Absent("batch_p90_ms", "ms", no_batch);
  }
  report.SetPercentile("update_p50_ms", update_ms, 0.50);
  const bool churn = shape.update_period_ms <= 0 && !shape.remote;
  if (churn) {
    report.SetPercentile("update_p95_ms", update_ms, 0.95);
    report.Set("edge_updates_per_s", "1/s", edge_updates / run.window_s);
  } else {
    const std::string why =
        "reported on traffic-churn, whose writer runs back to back";
    report.Absent("update_p95_ms", "ms", why);
    report.Absent("edge_updates_per_s", "1/s", why);
  }
  report.Set("error_rate", "ratio",
             failures.attempted == 0
                 ? 0
                 : static_cast<double>(failures.failed()) /
                       static_cast<double>(failures.attempted));
  report.Set("peak_rss_mb", "MB", run.peak_rss_mb);
}

double MeanOf(const std::map<uint64_t, double>& per_request,
              const std::vector<KspDgReplay>& replays) {
  double total = 0;
  for (const KspDgReplay& r : replays) {
    auto it = per_request.find(r.request_id);
    if (it != per_request.end()) total += it->second;
  }
  return replays.empty() ? 0 : total / static_cast<double>(replays.size());
}

std::vector<double> Values(const std::map<uint64_t, double>& m) {
  std::vector<double> out;
  for (const auto& [id, v] : m) out.push_back(v);
  return out;
}

/// Per-layer metrics of a traced window plus its offline replays.
void PerLayer(const WorkloadShape& shape, const LoadRun& untraced,
              const LoadRun& run, const OracleResult& oracle,
              const LayerReplay& layers, const std::vector<Span>& spans,
              Report& report) {
  // api
  std::vector<double> wait_ms, solve_ms;
  for (const Answer& a : run.answers) {
    if (!a.status.ok()) continue;
    solve_ms.push_back(a.response.stats.solve_micros / 1e3);
    if (!shape.remote) {
      wait_ms.push_back(a.latency_ms - a.response.stats.solve_micros / 1e3);
    }
  }
  if (shape.remote) {
    report.Set("api.query_wait_ms", "ms", 0,
               "no Query calls on remote-batch; see core.queue_wait_ms");
  } else {
    // A mean, not a median: most queries never wait, and the stalls behind
    // a draining writer are what this metric is for.
    report.Set("api.query_wait_ms", "ms", Mean(wait_ms));
  }
  report.Set("api.solve_ms", "ms", Median(solve_ms));

  std::vector<double> self_ms, writer_wait_ms, touched, refreshed, cands_ms,
      recomputed, commit_ms;
  for (const UpdateRecord& u : run.updates) {
    if (!u.status.ok()) continue;
    const size_t batch = u.result.epoch - 1;  // batch i entered epoch i + 1
    const double wait = u.writer_wait_ms.value_or(0);
    const double dtlp =
        batch < layers.dtlp_apply_ms.size() ? layers.dtlp_apply_ms[batch] : 0;
    self_ms.push_back(u.call_ms - wait - dtlp - u.result.cands_micros / 1e3);
    writer_wait_ms.push_back(wait);
    touched.push_back(static_cast<double>(u.result.dtlp.subgraphs_touched));
    refreshed.push_back(
        static_cast<double>(u.result.dtlp.skeleton_pairs_refreshed));
    cands_ms.push_back(u.result.cands_micros / 1e3);
    recomputed.push_back(
        static_cast<double>(u.result.cands.pair_paths_recomputed));
    commit_ms.push_back(u.call_ms);
  }
  report.Set("api.apply_self_ms", "ms", Median(self_ms));

  // core
  report.Set("core.writer_wait_ms", "ms", Median(writer_wait_ms));
  if (shape.remote) {
    std::vector<double> queue_ms;
    for (const BatchRecord& b : run.batches) {
      if (b.ok) queue_ms.push_back(b.latency_ms - b.batch_micros / 1e3);
    }
    report.Set("core.queue_wait_ms", "ms", Median(queue_ms));
  } else {
    report.Set("core.queue_wait_ms", "ms", 0,
               "no SubmitBatch calls, so no submission queue");
  }

  // dtlp, cands
  report.Set("dtlp.build_ms", "ms", Median(layers.dtlp_build_ms));
  report.Set("dtlp.apply_ms", "ms", Median(layers.dtlp_apply_ms));
  report.Set("dtlp.subgraphs_touched", "count", Median(touched));
  report.Set("dtlp.skeleton_pairs_refreshed", "count", Median(refreshed));
  report.Set("dtlp.index_mb", "MB", layers.dtlp_index_mb);
  report.Set("cands.rebuild_ms", "ms", Median(cands_ms));
  report.Set("cands.pair_paths_recomputed", "count", Median(recomputed));
  report.Set("cands.index_mb", "MB", layers.cands_index_mb);
  report.Set("cands.build_ms", "ms", layers.cands_build_ms);

  // kspdg: means per replayed query, so the stages add up.
  const std::vector<KspDgReplay>& replays = layers.kspdg;
  const double query = MeanOf(PerRequestMs(spans, "kspdg.query", false), replays);
  const double overlay =
      MeanOf(PerRequestMs(spans, "kspdg.overlay", false), replays);
  const double references =
      MeanOf(PerRequestMs(spans, "kspdg.reference_paths", false), replays);
  const double candidates =
      MeanOf(PerRequestMs(spans, "kspdg.candidates", false), replays);
  report.Set("kspdg.replayed_queries", "count",
             static_cast<double>(replays.size()));
  report.Set("kspdg.query_ms", "ms", query);
  report.Set("kspdg.overlay_ms", "ms", overlay);
  report.Set("kspdg.reference_paths_ms", "ms", references);
  report.Set("kspdg.candidates_ms", "ms", candidates);
  report.Set("kspdg.partials_ms", "ms",
             MeanOf(PerRequestMs(spans, "kspdg.partials", false), replays));
  report.Set("kspdg.join_self_ms", "ms",
             MeanOf(PerRequestMs(spans, "kspdg.candidates", true), replays));
  report.Set("kspdg.stage_coverage", "ratio",
             query > 0 ? (overlay + references + candidates) / query : 0);
  double iterations = 0, cap_hits = 0, fetches = 0, hits = 0, yen_runs = 0,
         generated = 0, returned = 0, drift = 0;
  for (const KspDgReplay& r : replays) {
    iterations += r.iterations;
    cap_hits += r.cap_hit ? 1 : 0;
    fetches += static_cast<double>(r.partial_fetches);
    hits += static_cast<double>(r.partial_cache_hits);
    yen_runs += static_cast<double>(r.subgraph_yen_runs);
    generated += static_cast<double>(r.candidates);
    returned += static_cast<double>(r.paths);
    drift += r.drift ? 1 : 0;
  }
  const double n = std::max<double>(1, static_cast<double>(replays.size()));
  report.Set("kspdg.iterations_per_k", "ratio", iterations / n / kTopK);
  report.Set("kspdg.cap_hits", "count", cap_hits);
  report.Set("kspdg.partial_cache_hit_ratio", "ratio",
             hits + fetches > 0 ? hits / (hits + fetches) : 0);
  report.Set("kspdg.yen_runs_per_query", "count", yen_runs / n);
  report.Set("kspdg.useful_candidate_ratio", "ratio",
             generated > 0 ? returned / generated : 0);
  report.Set("kspdg.replay_drift", "count", drift);

  // ksp
  report.Set("ksp.findksp_ms", "ms", Median(Values(oracle.findksp_ms)));
  report.Set("ksp.yen_ms", "ms", Median(Values(oracle.yen_ms)));
  std::vector<double> ratios;
  std::map<uint64_t, double> kspdg_ms = PerRequestMs(spans, "kspdg.query", false);
  for (const KspDgReplay& r : replays) {
    auto f = oracle.findksp_ms.find(r.request_id);
    if (f != oracle.findksp_ms.end() && f->second > 0) {
      ratios.push_back(kspdg_ms[r.request_id] / f->second);
    }
  }
  report.Set("ksp.kspdg_over_findksp", "ratio", Median(ratios));

  // mfp
  if (oracle.select_ms.empty()) {
    const std::string why = "no kDiverseKsp requests on this workload";
    report.Set("mfp.select_ms", "ms", 0, why);
    report.Absent("mfp.kept_ratio", "ratio", why);
  } else {
    report.Set("mfp.select_ms", "ms", Median(Values(oracle.select_ms)));
    report.Set("mfp.kept_ratio", "ratio", Mean(oracle.kept_ratio));
  }

  // rpc, remote
  const double ok = std::max<double>(1, static_cast<double>(OkAnswers(run)));
  if (shape.remote) {
    report.Set("rpc.calls_per_query", "count",
               DeltaNetOfScrapes(run, "rpc_calls_total") / ok);
    report.Set("rpc.bytes_per_query", "bytes",
               (DeltaNetOfScrapes(run, "rpc_bytes_sent_total") +
                DeltaNetOfScrapes(run, "rpc_bytes_received_total")) /
                   ok);
    report.Set("rpc.retries", "count",
               static_cast<double>(Delta(run, "rpc_retries_total")));
    const double requests =
        static_cast<double>(Delta(run, "partial_requests_total"));
    const double cache_hits =
        static_cast<double>(Delta(run, "partial_cache_hits_total"));
    const double direct =
        static_cast<double>(Delta(run, "direct_partial_requests_total"));
    const double scattered =
        static_cast<double>(Delta(run, "scattered_partial_requests_total"));
    report.Set("remote.partials_per_query", "count", (direct + scattered) / ok);
    report.Set("remote.scattered_share", "ratio",
               direct + scattered > 0 ? scattered / (direct + scattered) : 0);
    report.Set("remote.partial_cache_hit_ratio", "ratio",
               requests + cache_hits > 0 ? cache_hits / (requests + cache_hits)
                                         : 0);
    report.Set("remote.worker_yen_runs_per_query", "count",
               static_cast<double>(Delta(run, "worker_yen_runs_total")) / ok);
    report.Set("remote.commit_ms", "ms", Median(commit_ms));
  } else {
    // True zeros: an in-process service makes no RPC calls and sends no
    // partial requests. The two ratios have no denominator here.
    const std::string why = "in-process service: no RPC layer";
    for (const char* name :
         {"rpc.calls_per_query", "rpc.retries", "remote.partials_per_query",
          "remote.worker_yen_runs_per_query"}) {
      report.Set(name, "count", 0, why);
    }
    report.Set("rpc.bytes_per_query", "bytes", 0, why);
    report.Set("remote.commit_ms", "ms", 0,
               "in-process service: no remote epoch commit");
    report.Absent("remote.scattered_share", "ratio", why);
    report.Absent("remote.partial_cache_hit_ratio", "ratio", why);
  }

  // obs, tracing overhead
  report.Set("obs.scrape_ms", "ms", Median(run.scrape_ms));
  const double traced_qps = static_cast<double>(OkAnswers(run)) / run.window_s;
  const double untraced_qps =
      static_cast<double>(OkAnswers(untraced)) / untraced.window_s;
  report.Set("trace.overhead_ratio", "ratio",
             traced_qps > 0 ? untraced_qps / traced_qps : 0);
}

std::string Join(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(items[i]);
  }
  return out + "]";
}

JsonObject RunSummary(const LoadRun& run, const Failures& failures,
                      const OracleResult& oracle,
                      const std::vector<std::string>& accounting,
                      uint32_t max_iterations) {
  JsonObject out;
  out.Num("window_s", run.window_s);
  out.Num("cpu_s", run.cpu_s);
  out.Num("load_threads", run.load_threads);
  out.Num("parallel_efficiency",
          run.cpu_s / run.window_s / std::max(1u, run.load_threads));
  // Answers are spooled to disk during the window; only the clients' 64 KiB
  // write buffers count towards peak_rss_mb.
  out.Num("answer_spool_mb", run.answer_spool_mb);
  out.Num("requests", static_cast<double>(run.answers.size()));
  out.Num("traffic_batches", static_cast<double>(run.updates.size()));
  std::vector<double> late, call, latency;
  for (const UpdateRecord& u : run.updates) {
    late.push_back(u.late_ms);
    call.push_back(u.call_ms);
  }
  double capped = 0, iterations = 0;
  for (const Answer& a : run.answers) {
    latency.push_back(a.latency_ms);
    iterations += a.response.stats.engine.iterations;
    if (a.status.ok() && a.backend == kspdg::kBackendKspDg &&
        a.response.stats.engine.iterations >= max_iterations) {
      ++capped;
    }
  }
  // From the responses' own KSP-DG stats: answers that stopped at the
  // iteration cap, the known truncation defect's main trigger.
  out.Num("kspdg_mean_iterations",
          iterations / std::max<double>(1, run.answers.size()));
  out.Num("kspdg_capped_answers", capped);
  std::map<std::string, std::vector<double>> by_kind;
  for (const Answer& a : run.answers) {
    by_kind[std::string(kspdg::QueryKindName(a.kind)) + "/" + a.backend]
        .push_back(a.latency_ms);
  }
  JsonObject kinds;
  for (const auto& [kind, ms] : by_kind) {
    kinds.Add(kind, JsonObject()
                        .Num("requests", static_cast<double>(ms.size()))
                        .Num("p50_ms", Median(ms))
                        .Num("mean_ms", Mean(ms))
                        .ToString());
  }
  out.Add("requests_by_kind", kinds.ToString());
  out.Num("writer_late_p50_ms", Median(late));
  out.Num("writer_late_max_ms", Percentile(late, 1.0));
  out.Num("apply_call_p50_ms", Median(call));
  out.Num("request_mean_ms", Mean(latency));
  out.Num("request_p90_ms", Percentile(latency, 0.9));
  out.Num("request_max_ms", Percentile(latency, 1.0));
  out.Add("setup_s", "[" + [&] {
    std::string s;
    for (size_t i = 0; i < run.setup_s.size(); ++i) {
      s += (i ? ", " : "") + JsonNumber(run.setup_s[i]);
    }
    return s;
  }() + "]");
  out.Num("attempted", static_cast<double>(failures.attempted));
  out.Num("failed_requests", static_cast<double>(failures.failed_requests));
  out.Num("failed_updates", static_cast<double>(failures.failed_updates));
  out.Num("oracle_checked", static_cast<double>(oracle.checked));
  out.Num("oracle_wrong", static_cast<double>(oracle.wrong));
  out.Num("oracle_checked_kspdg", static_cast<double>(oracle.checked_kspdg));
  out.Num("oracle_wrong_truncated",
          static_cast<double>(oracle.wrong_truncated));
  out.Add("oracle_wrong_examples", Join(oracle.wrong_examples));
  out.Add("accounting_mismatches", Join(accounting));
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--socket-dir DIR] "
                 "[--git-sha SHA] [--smoke] [--corrupt-answer]\n");
    return 2;
  }
  std::optional<WorkloadShape> shape = ShapeFor(args.workload, args.smoke);
  if (!shape.has_value()) {
    std::string known;
    for (const std::string& n : WorkloadNames()) known += " " + n;
    std::fprintf(stderr, "unknown workload '%s' (known:%s)\n",
                 args.workload.c_str(), known.c_str());
    return 2;
  }
  ::mkdir(args.out_dir.c_str(), 0755);
  ::mkdir(args.socket_dir.c_str(), 0755);

  const kspdg::Graph graph = kspdg::LoadScaledDataset(
      *kspdg::FindDataset("NY-S"), shape->vertices);
  const kspdg::RoutingOptions defaults = ServiceDefaults(*shape);

  // The end-to-end window, always untraced. A traced run splits its time
  // into this window and a traced one over the same inputs, each half as
  // long, so it costs about as much as an untraced run plus the replays.
  const double window_s = args.trace == 1 ? args.seconds / 2 : args.seconds;
  kspdg::Result<LoadRun> loaded =
      RunLoad(*shape, graph, args.seed, window_s, kSetups, args.socket_dir,
              args.out_dir, nullptr);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  LoadRun run = std::move(loaded).value();
  if (args.corrupt_answer) CorruptOneAnswer(run);
  std::vector<std::string> accounting = CheckAccounting(run);
  OracleResult oracle = CheckAnswers(graph, run.traffic, run.answers, defaults,
                                     /*time_findksp=*/false, nullptr);
  Failures failures = CountFailures(run, oracle);

  Report report;
  EndToEnd(*shape, run, failures, report);

  JsonObject full;
  full.Str("workload", shape->name);
  full.Num("seed", static_cast<double>(args.seed));
  full.Num("seconds", args.seconds);
  full.Num("trace", args.trace);
  {
    JsonObject s;
    s.Str("dataset", "NY-S");
    s.Num("vertices", static_cast<double>(graph.NumVertices()));
    s.Num("edges", static_cast<double>(graph.NumEdges()));
    s.Num("k", kTopK);
    s.Num("z", shape->z);
    s.Str("service", shape->remote ? "RemoteShardedRoutingService (2 shards x 1 replica)"
                                   : "RoutingService");
    std::string mixes;
    for (const ClientMix& m : shape->clients) {
      mixes += std::string(mixes.empty() ? "" : ", ") +
               kspdg::QueryKindName(m.kind) + "/" + m.backend;
    }
    s.Str("clients", shape->remote ? "1 SubmitBatch client, batches of " +
                                         std::to_string(kBatchSize)
                                   : mixes);
    if (shape->remote) {
      s.Num("query_batches_per_window",
            static_cast<double>(RemoteQueryBatches(*shape, window_s)));
    }
    s.Str("writer", shape->remote ? "after every query batch"
                    : shape->update_period_ms > 0
                        ? "open loop, one batch due every " +
                              std::to_string(shape->update_period_ms) + " ms"
                        : "closed loop, back to back");
    s.Num("traffic_alpha", 0.35);
    s.Num("traffic_tau", 0.30);
    full.Add("shape", s.ToString());
  }
  full.Add("env", EnvironmentJson(args.git_sha).ToString());
  full.Add("untraced", RunSummary(run, failures, oracle, accounting,
                                    defaults.max_iterations)
                             .ToString());

  // Wrong answers that fit the known truncation defect count as failed
  // operations and in error_rate. Any other wrong answer, any accounting
  // mismatch and any replay drift make the run incorrect.
  bool correct = accounting.empty() && OracleAccepts(oracle);
  uint64_t attempted = failures.attempted;
  uint64_t failed = failures.failed();
  std::vector<std::string> keys = kEndToEndKeys;

  if (args.trace == 1) {
    Tracer tracer;
    kspdg::Result<LoadRun> traced_or =
        RunLoad(*shape, graph, args.seed, window_s, /*setups=*/1,
                args.socket_dir, args.out_dir, &tracer);
    if (!traced_or.ok()) {
      std::fprintf(stderr, "traced load failed: %s\n",
                   traced_or.status().ToString().c_str());
      return 1;
    }
    LoadRun traced = std::move(traced_or).value();
    std::vector<std::string> traced_accounting = CheckAccounting(traced);
    OracleResult traced_oracle =
        CheckAnswers(graph, traced.traffic, traced.answers, defaults,
                     /*time_findksp=*/true, &tracer);
    std::vector<const Answer*> kspdg_answers;
    for (const Answer& a : traced.answers) {
      if (!a.status.ok() || a.kind != QueryKind::kKsp) continue;
      if (a.response.epoch > traced.traffic.size()) continue;
      if (a.backend != kspdg::kBackendKspDg &&
          kspdg_answers.size() >= kChurnKspDgSample) {
        continue;
      }
      kspdg_answers.push_back(&a);
    }
    kspdg::DtlpOptions dtlp_options;
    dtlp_options.partition.max_vertices = shape->z;
    LayerReplay layers = ReplayLayers(graph, traced.traffic, dtlp_options,
                                      defaults, kspdg_answers, &tracer);
    std::vector<Span> spans = tracer.Spans();
    PerLayer(*shape, run, traced, traced_oracle, layers, spans, report);
    if (shape->remote) {
      kspdg::Result<std::vector<double>> ratios =
          ReplayBatchesInProcess(*shape, graph, traced);
      if (!ratios.ok()) {
        std::fprintf(stderr, "in-process batch replay failed: %s\n",
                     ratios.status().ToString().c_str());
        return 1;
      }
      report.Set("remote.overhead_ratio", "ratio", Median(ratios.value()));
    } else {
      report.Absent("remote.overhead_ratio", "ratio",
                    "in-process service: no RPC layer");
    }
    Failures traced_failures = CountFailures(traced, traced_oracle);
    full.Add("traced", RunSummary(traced, traced_failures, traced_oracle,
                                  traced_accounting, defaults.max_iterations)
                           .ToString());
    full.Add("kspdg_drift_examples", Join(layers.drift_examples));
    JsonObject totals;
    for (const auto& [name, t] : TotalsByName(spans)) {
      JsonObject entry;
      entry.Num("count", static_cast<double>(t.count));
      entry.Num("total_ms", t.total_ms);
      entry.Num("self_ms", t.self_ms);
      totals.Add(name, entry.ToString());
    }
    full.Add("span_totals", totals.ToString());
    const std::string spans_path =
        args.out_dir + "/spans-" + shape->name + ".csv";
    if (!tracer.WriteCsv(spans_path)) {
      std::fprintf(stderr, "could not write %s\n", spans_path.c_str());
    }
    correct = correct && traced_accounting.empty() &&
              OracleAccepts(traced_oracle) &&
              report.Value("kspdg.replay_drift") == 0;
    attempted += traced_failures.attempted;
    failed += traced_failures.failed();
    keys = kPerLayerKeys;
  }

  full.Add("metrics", report.MetricsJson());
  const std::string report_path = args.out_dir + "/report-" + shape->name +
                                  "-trace" + std::to_string(args.trace) +
                                  ".json";
  std::ofstream report_file(report_path);
  report_file << full.ToString() << "\n";
  if (!report_file) {
    std::fprintf(stderr, "could not write %s\n", report_path.c_str());
  }

  std::printf("%s", report.Lines().c_str());
  for (const std::string& p : accounting) {
    std::printf("accounting mismatch: %s\n", p.c_str());
  }
  for (const std::string& w : oracle.wrong_examples) {
    std::printf("oracle: wrong answer: %s\n", w.c_str());
  }
  std::printf("full report: %s\n", report_path.c_str());

  JsonObject metrics;
  for (const std::string& key : keys) {
    if (!report.Has(key)) {
      std::fprintf(stderr, "required metric %s is absent: %s\n", key.c_str(),
                   report.metrics().count(key)
                       ? report.metrics().at(key).absent_reason.c_str()
                       : "never computed");
      return 1;
    }
    const Metric& m = report.metrics().at(key);
    metrics.Add(key, JsonObject().Num("value", *m.value).Str("unit", m.unit)
                         .ToString());
  }
  JsonObject last;
  last.Add("correct", correct ? "true" : "false");
  last.Num("attempted", static_cast<double>(attempted));
  last.Num("failed", static_cast<double>(failed));
  last.Add("metrics", metrics.ToString());
  std::printf("%s\n", last.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
