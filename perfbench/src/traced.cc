// The traced run: per-layer metrics, timed from this file around calls into
// each layer's public functions (nothing inside the program is
// instrumented for it), plus the checks that the layers reconcile.
//
//   graph    LoadEdgeList + GraphStore::Publish, Graph::MemoryBytes
//   hkpr     TeaPlusEstimator::EstimateInto, and a phase-by-phase replay of
//            it: HkPushPlusInto, ReduceResidues, CollectWalkStarts,
//            RunInterleavedWalks, the merge loop
//   service  MultiGraphService::Submit on the hit path; queue wait and
//            cache time from the service's routing events under the
//            workload's open-loop load
//   net      CommandProcessor::Execute on the hit path, one-connection
//            loopback round trips, TenantRegistry::Admit

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/push.h"
#include "hkpr/tea_plus.h"
#include "hkpr/walk_kernel.h"
#include "hkpr/workspace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Shares of --seconds given to each traced phase; set-up and the layer
/// loops take the rest.
constexpr double kOpenShare = 0.35;
constexpr double kClosedShare = 0.1;  // each of traced and untraced
constexpr double kHkprShare = 0.3;
/// The hit-path layer loops: this many iterations over a small hot set.
constexpr size_t kLayerIterations = 2000;
constexpr size_t kLayerHotSeeds = 64;
/// The phase replay must account for the whole EstimateInto time within
/// this tolerance.
constexpr double kPhaseSumTolerance = 0.1;

/// Phase-by-phase replay of TeaPlusEstimator::EstimateInto, timed against
/// the estimator itself on the same seeds.
struct HkprLayer {
  std::vector<double> compute_ms;
  size_t early_exits = 0;
  double estimate_s = 0.0;
  double push_s = 0.0, reduce_s = 0.0, alias_s = 0.0, walk_s = 0.0,
         merge_s = 0.0;
  uint64_t push_ops = 0;
  uint64_t walk_steps = 0;
  /// Queries where the replay did not reproduce EstimateInto exactly.
  size_t mismatches = 0;
};

HkprLayer MeasureHkpr(const Workload& workload, const hkpr::Graph& graph,
                      const std::vector<uint32_t>& seeds, uint64_t seed,
                      double budget_s) {
  hkpr::ApproxParams params = ServiceParams(graph.NumNodes());
  params.t = workload.t;
  // Default options: the tea+ backend the service runs.
  hkpr::TeaPlusEstimator estimator(graph, params, 0);
  const hkpr::HeatKernel kernel(params.t);
  const double eps_delta = params.eps_r * params.delta;
  hkpr::HkPushPlusOptions push_options;
  push_options.eps_r = params.eps_r;
  push_options.delta = params.delta;
  push_options.hop_cap = estimator.hop_cap();
  push_options.push_budget = estimator.push_budget();
  const uint32_t width =
      hkpr::EffectiveWalkWidth(graph, hkpr::WalkKernelOptions{});
  hkpr::QueryWorkspace estimate_ws;
  hkpr::QueryWorkspace replay_ws;

  HkprLayer layer;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < seeds.size() && Since(start) < budget_s; ++i) {
    const hkpr::NodeId node = seeds[i];
    const uint64_t stream = SubSeed(seed, 1000 + i);
    hkpr::EstimatorStats stats;
    const hkpr::SparseVector* estimate = nullptr;
    const auto run_estimate = [&] {
      estimator.Reseed(stream);
      const Clock::time_point t0 = Clock::now();
      estimate = &estimator.EstimateInto(node, estimate_ws, &stats);
      const double s = Since(t0);
      layer.estimate_s += s;
      layer.compute_ms.push_back(s * 1e3);
      layer.early_exits += stats.early_exit ? 1 : 0;
    };
    hkpr::QueryWorkspace& ws = replay_ws;
    uint64_t replay_ops = 0;
    uint64_t replay_steps = 0;
    const auto run_replay = [&] {
      Clock::time_point t = Clock::now();
      const auto lap = [&t](double* into) {
        const Clock::time_point now = Clock::now();
        *into += std::chrono::duration<double>(now - t).count();
        t = now;
      };
      const hkpr::PushCounters push =
          hkpr::HkPushPlusInto(graph, kernel, node, push_options, ws);
      const bool early_exit =
          push.hit_absolute_target ||
          ws.residues.MaxNormalizedResidueSum(graph) <= eps_delta;
      lap(&layer.push_s);
      replay_ops = push.push_operations;
      if (early_exit) return;
      hkpr::ReduceResidues(graph, hkpr::TeaPlusOptions{}, eps_delta,
                           ws.residues);
      lap(&layer.reduce_s);
      const double alpha = ws.residues.TotalSum();
      const uint64_t num_walks =
          alpha > 0.0
              ? static_cast<uint64_t>(std::ceil(alpha * estimator.omega()))
              : 0;
      if (num_walks > 0) {
        ws.CollectWalkStarts();
        lap(&layer.alias_s);
        ws.walk_ends.resize(num_walks);
        const hkpr::WalkStartSet starts{&ws.alias, ws.starts.data(), 0};
        replay_steps = hkpr::RunInterleavedWalks(
            graph, kernel, starts, hkpr::WalkStreamSeed(stream, 0), 0,
            num_walks, ws.walk_ends.data(), width);
        lap(&layer.walk_s);
        const double increment = alpha / static_cast<double>(num_walks);
        for (uint64_t w = 0; w < num_walks; ++w) {
          ws.result.Add(ws.walk_ends[w], increment);
        }
      }
      ws.result.set_degree_offset(eps_delta / 2.0);
      lap(&layer.merge_s);
    };
    // Alternate which side runs first, so neither always finds the
    // seed's neighbourhood already in cache.
    if (i % 2 == 0) {
      run_estimate();
      run_replay();
    } else {
      run_replay();
      run_estimate();
    }
    layer.push_ops += replay_ops;
    layer.walk_steps += replay_steps;
    if (replay_ops != stats.push_operations ||
        replay_steps != stats.walk_steps ||
        ws.result.nnz() != estimate->nnz() ||
        ws.result.Sum() != estimate->Sum()) {
      ++layer.mismatches;
    }
  }
  return layer;
}

struct HitPathLayers {
  std::vector<double> submit_us, execute_us, rtt_us;
  size_t misses = 0;  // iterations dropped because they were not hits
};

/// Times the same cached query through three entry points, innermost
/// first: MultiGraphService::Submit to a ready future,
/// CommandProcessor::Execute, and a loopback TCP round trip.
HitPathLayers MeasureHitPath(const Workload& workload, ServingStack& stack,
                             const std::vector<uint32_t>& hot,
                             std::string* error) {
  HitPathLayers layers;
  hkpr::SubmitOptions submit;
  submit.plan.t = workload.t;
  for (uint32_t s : hot) {  // compute (or re-touch) every hot entry
    stack.service->Submit(ServingStack::kGraphName, s, submit).result.get();
  }
  Connection conn;
  if (!conn.Connect(stack.server->port())) {
    *error = "cannot connect for the round-trip loop";
    return layers;
  }
  hkpr::ClientSession session = stack.processor->NewSession();
  const std::string suffix = QuerySuffix(workload);
  std::string line;
  for (size_t i = 0; i < kLayerIterations; ++i) {
    const uint32_t s = hot[i % hot.size()];
    const std::string request = "query " + std::to_string(s) + suffix;

    Clock::time_point t0 = Clock::now();
    const hkpr::QueryResult result =
        stack.service->Submit(ServingStack::kGraphName, s, submit)
            .result.get();
    const double submit_us = Since(t0) * 1e6;

    t0 = Clock::now();
    const hkpr::CommandResult executed =
        stack.processor->Execute(session, request);
    const double execute_us = Since(t0) * 1e6;

    t0 = Clock::now();
    if (!conn.SendLine(request) || !conn.ReadLine(&line)) {
      *error = "round-trip connection failed";
      return layers;
    }
    const double rtt_us = Since(t0) * 1e6;

    QueryResponse parsed;
    const bool hits =
        result.status == hkpr::QueryStatus::kOk && result.from_cache &&
        CheckQueryResponse(executed.output.substr(
                               0, executed.output.find('\n')),
                           s, &parsed)
            .empty() &&
        parsed.cache_hit && CheckQueryResponse(line, s, &parsed).empty() &&
        parsed.cache_hit;
    if (!hits) {
      ++layers.misses;
      continue;
    }
    layers.submit_us.push_back(submit_us);
    layers.execute_us.push_back(execute_us);
    layers.rtt_us.push_back(rtt_us);
  }
  return layers;
}

/// TenantRegistry::Admit cost, ns per call: the median over batches.
double MeasureAdmitNs() {
  hkpr::TenantRegistry tenants;
  constexpr size_t kBatch = 1000;
  std::vector<double> per_call_ns;
  for (int batch = 0; batch < 100; ++batch) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < kBatch; ++i) {
      tenants.Admit(hkpr::kDefaultTenant, 0, 1024);
    }
    per_call_ns.push_back(Since(t0) * 1e9 / kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      tenants.OnComplete(hkpr::kDefaultTenant, true, 0.0);
    }
  }
  return Median(per_call_ns);
}

}  // namespace

bool RunTraced(const Workload& workload, const std::string& graph_path,
               uint64_t seed, double seconds, RunReport* report,
               std::string* error) {
  // graph: the set-up repetitions, with the service's tracing on.
  std::vector<double> load_s;
  std::unique_ptr<ServingStack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    SetupTiming timing;
    stack = StartStack(workload, graph_path, seed, /*telemetry=*/true, &timing,
                       error);
    if (stack == nullptr) return false;
    load_s.push_back(timing.load_s + timing.publish_s);
  }
  const std::shared_ptr<const hkpr::Graph> graph = stack->graph;
  const std::vector<uint32_t> hot_set = stack->hot_set;
  const std::string suffix = QuerySuffix(workload);
  const WorkloadInputs inputs =
      MakeInputs(workload, *stack, seed, seconds * kOpenShare);
  // Built on the local hot set copy: it outlives this stack.
  ClosedLoopSeeds closed_seeds(workload, inputs, hot_set,
                               workload.connections, seed);

  // service: routing events drained alongside the open loop.
  std::vector<hkpr::RoutingEvent> events;
  const hkpr::ServiceStatsSnapshot before =
      stack->service->StatsFor(ServingStack::kGraphName);
  RequestCounts open_counts;
  const OpenLoopResult open =
      RunOpenLoopAttempts(workload, *stack, &open_counts, [&] {
        hkpr::MultiGraphService& service = *stack->service;
        const auto drain = [&] {
          for (auto& [name, drained] : service.DrainAllRoutingEvents()) {
            events.insert(events.end(), drained.begin(), drained.end());
          }
        };
        // The warm pass's or a discarded attempt's events.
        service.DrainAllRoutingEvents();
        events.clear();
        std::jthread drainer([&](std::stop_token stop) {
          while (!stop.stop_requested()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            drain();
          }
        });
        OpenLoopResult attempt =
            RunOpenLoop(stack->connections, inputs.schedule,
                        inputs.open_seeds, suffix, /*drain_s=*/10.0);
        drainer.request_stop();
        drainer.join();
        drain();
        return attempt;
      });
  const hkpr::ServiceStatsSnapshot after =
      stack->service->StatsFor(ServingStack::kGraphName);
  std::vector<double> queue_wait_us, cache_us;
  for (const hkpr::RoutingEvent& e : events) {
    queue_wait_us.push_back(static_cast<double>(e.dequeue_us - e.plan_us));
    cache_us.push_back(static_cast<double>(e.cache_us - e.dequeue_us));
  }
  const double hit_ratio =
      open_counts.ok > 0 ? static_cast<double>(open_counts.hits) /
                               static_cast<double>(open_counts.ok)
                         : 0.0;
  const double achieved_ratio = AchievedOverOffered(open);
  std::printf("open-loop (traced): offered=%.1fqps ok=%llu failed=%llu "
              "routing_events=%zu\n",
              open.offered_qps,
              static_cast<unsigned long long>(open_counts.ok),
              static_cast<unsigned long long>(open_counts.failed),
              events.size());

  const Capacity traced_closed =
      MeasureCapacity(workload, *stack, closed_seeds, seconds * kClosedShare);
  stack.reset();

  // The untraced stack: the closed loop as the end-to-end run measures it,
  // then the hit-path layer loops.
  SetupTiming untraced_timing;
  stack = StartStack(workload, graph_path, seed, /*telemetry=*/false,
                     &untraced_timing, error);
  if (stack == nullptr) return false;
  const Capacity untraced_closed =
      MeasureCapacity(workload, *stack, closed_seeds, seconds * kClosedShare);
  std::vector<uint32_t> hot;
  if (workload.warm) {
    hot.assign(hot_set.begin(),
               hot_set.begin() + std::min(kLayerHotSeeds, hot_set.size()));
  } else {
    // Reserved seeds the warm pass did not use: no loop requested them.
    const std::vector<uint32_t>& order = stack->order;
    hot.assign(order.end() - kColdWarmupSeeds - kLayerHotSeeds,
               order.end() - kColdWarmupSeeds);
  }
  const HitPathLayers hit_path = MeasureHitPath(workload, *stack, hot, error);
  if (!error->empty()) return false;
  stack.reset();
  const double admit_ns = MeasureAdmitNs();

  // hkpr: the estimator and its phase replay on the workload's seeds.
  const HkprLayer hk = MeasureHkpr(
      workload, *graph, workload.warm ? hot_set : inputs.distinct, seed,
      seconds * kHkprShare);

  // Metrics.
  const size_t queries = hk.compute_ms.size();
  const double per_query_ms = queries > 0 ? 1e3 / static_cast<double>(queries)
                                          : 0.0;
  const double phase_sum_s =
      hk.push_s + hk.reduce_s + hk.alias_s + hk.walk_s + hk.merge_s;
  const double phase_sum_ratio =
      hk.estimate_s > 0.0 ? phase_sum_s / hk.estimate_s : 0.0;
  const double submit_p50 = NearestRank(hit_path.submit_us, 0.5);
  const double execute_p50 = NearestRank(hit_path.execute_us, 0.5);
  const double rtt_p50 = NearestRank(hit_path.rtt_us, 0.5);
  report->metrics = {
      {"graph.load_s", Median(load_s), "s"},
      {"graph.csr_mb", static_cast<double>(graph->MemoryBytes()) / (1 << 20),
       "MB"},
      {"hkpr.compute_ms_p50", NearestRank(hk.compute_ms, 0.5), "ms"},
      {"hkpr.compute_ms_p99", NearestRank(hk.compute_ms, 0.99), "ms"},
      {"hkpr.early_exit_ratio",
       queries > 0 ? static_cast<double>(hk.early_exits) / queries : 0.0,
       "ratio"},
      {"hkpr.push_ms", hk.push_s * per_query_ms, "ms"},
      {"hkpr.push_ops",
       queries > 0 ? static_cast<double>(hk.push_ops) / queries : 0.0,
       "ops/query"},
      {"hkpr.push_ns_per_op",
       hk.push_ops > 0 ? hk.push_s * 1e9 / static_cast<double>(hk.push_ops)
                       : 0.0,
       "ns"},
      {"hkpr.reduce_ms", hk.reduce_s * per_query_ms, "ms"},
      {"hkpr.alias_ms", hk.alias_s * per_query_ms, "ms"},
      {"hkpr.walk_ms", hk.walk_s * per_query_ms, "ms"},
      {"hkpr.walk_steps",
       queries > 0 ? static_cast<double>(hk.walk_steps) / queries : 0.0,
       "steps/query"},
      {"hkpr.walk_ns_per_step",
       hk.walk_steps > 0
           ? hk.walk_s * 1e9 / static_cast<double>(hk.walk_steps)
           : 0.0,
       "ns"},
      {"hkpr.merge_ms", hk.merge_s * per_query_ms, "ms"},
      {"hkpr.phase_sum_ratio", phase_sum_ratio, "ratio"},
      {"service.submit_us_p50", submit_p50, "us"},
      {"service.submit_us_p99", NearestRank(hit_path.submit_us, 0.99), "us"},
      {"service.queue_wait_us_p50", NearestRank(queue_wait_us, 0.5), "us"},
      {"service.queue_wait_us_p99", NearestRank(queue_wait_us, 0.99), "us"},
      {"service.cache_us", Mean(cache_us), "us"},
      {"service.hit_ratio", hit_ratio, "ratio"},
      {"service.coalesced",
       static_cast<double>(after.coalesced - before.coalesced), "count"},
      {"service.rejected",
       static_cast<double>(after.rejected - before.rejected), "count"},
      {"net.execute_us_p50", execute_p50, "us"},
      {"net.execute_us_p99", NearestRank(hit_path.execute_us, 0.99), "us"},
      {"net.tcp_rtt_us_p50", rtt_p50, "us"},
      {"net.transport_us", rtt_p50 - execute_p50, "us"},
      {"net.admit_ns", admit_ns, "ns"},
      {"loadgen.lag_p99_us", NearestRank(open.lag_us, 0.99), "us"},
      {"loadgen.achieved_over_offered", achieved_ratio, "ratio"},
      {"trace.overhead_ratio",
       untraced_closed.qps > 0.0 ? traced_closed.qps / untraced_closed.qps
                                 : 0.0,
       "ratio"},
  };

  const double phases[] = {hk.push_s, hk.reduce_s, hk.alias_s, hk.walk_s,
                           hk.merge_s};
  const char* const phase_names[] = {"push", "reduce", "alias", "walk",
                                     "merge"};
  const size_t largest =
      static_cast<size_t>(std::max_element(std::begin(phases),
                                           std::end(phases)) -
                          std::begin(phases));
  std::printf("hkpr: queries=%zu largest_phase=%s (%.1f%% of EstimateInto)\n",
              queries, phase_names[largest],
              hk.estimate_s > 0.0 ? 100.0 * phases[largest] / hk.estimate_s
                                  : 0.0);
  std::printf("hit path: samples=%zu dropped_misses=%zu\n",
              hit_path.submit_us.size(), hit_path.misses);
  for (const auto& [name, n] :
       {std::pair<const char*, size_t>{"hkpr.compute_ms", queries},
        {"service.submit_us", hit_path.submit_us.size()},
        {"service.queue_wait_us", queue_wait_us.size()},
        {"net.execute_us", hit_path.execute_us.size()}}) {
    if (!SupportsPercentile(n, 0.99)) {
      std::printf("note: %s_p99 rests on %zu samples, fewer than %zu beyond "
                  "p99\n",
                  name, n, kMinSamplesBeyond);
    }
  }

  // Requests and reconciliation.
  report->attempted = open_counts.sent + traced_closed.counts.sent +
                      untraced_closed.counts.sent;
  report->failed = open_counts.failed + traced_closed.counts.failed +
                   untraced_closed.counts.failed;
  if (report->failed > 0) {
    report->Fail(std::to_string(report->failed) + " requests failed");
  }
  if (queries == 0 || hk.mismatches > 0) {
    report->Fail("hkpr replay: " + std::to_string(hk.mismatches) + " of " +
                 std::to_string(queries) +
                 " queries differ from EstimateInto (push ops, walk steps or "
                 "result)");
  }
  if (std::abs(phase_sum_ratio - 1.0) > kPhaseSumTolerance) {
    report->Fail("hkpr phase sum is " + std::to_string(phase_sum_ratio) +
                 " of EstimateInto, outside 1 +- " +
                 std::to_string(kPhaseSumTolerance));
  }
  if (hit_path.submit_us.empty() ||
      !(rtt_p50 >= execute_p50 && execute_p50 >= submit_p50)) {
    report->Fail("layer order violated: tcp_rtt_p50 " +
                 std::to_string(rtt_p50) + " us, execute_p50 " +
                 std::to_string(execute_p50) + " us, submit_p50 " +
                 std::to_string(submit_p50) + " us");
  }
  if (workload.warm ? hit_ratio != 1.0 : open_counts.hits != 0) {
    report->Fail("regime not pure: hit ratio " + std::to_string(hit_ratio));
  }
  if (!workload.warm && after.coalesced != before.coalesced) {
    report->Fail("cold regime coalesced requests");
  }
  if (!OpenLoopValid(open)) {
    *error = "invalid run: generator lag or backlog beyond bounds in all " +
             std::to_string(kOpenLoopAttempts) + " open-loop attempts";
    return false;
  }
  return true;
}

}  // namespace perfbench
