// hkpr_perfbench: the serving benchmark. Drives the real stack
// (SocketServer -> CommandProcessor -> MultiGraphService -> TEA+) over
// loopback TCP on one named workload and prints every metric by name with
// its unit; the last stdout line is a JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
//
//   hkpr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --data-dir DIR
//   hkpr_perfbench --prepare --workload NAME --data-dir DIR
//
// --trace 0 measures the end-to-end metrics with the service's tracing off;
// --trace 1 is the separate traced run that times calls into each layer
// (see traced.cc). --prepare writes the workload's preset graph as an edge
// list under DIR; measuring runs only read it. perfbench/run.py builds the
// binary and calls both. Exit codes: 0 ok; 1 an output check failed (the
// JSON says correct=false); 2 bad arguments; 3 set-up failed or the run
// was invalid (no JSON).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"
#include "clustering/metrics.h"
#include "hkpr/power_method.h"

namespace perfbench {
namespace {

/// Slack on the (d, eps_r, delta) guarantee, as in the estimator tests.
constexpr double kAccuracySlack = 1.2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  int trace = 0;
  std::string data_dir;
  bool prepare = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--prepare") {
      args->prepare = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->data_dir.empty();
}

void PrintCounts(const char* phase, const RequestCounts& counts) {
  std::printf("%s: sent=%llu ok=%llu failed=%llu cache_hits=%llu\n", phase,
              static_cast<unsigned long long>(counts.sent),
              static_cast<unsigned long long>(counts.ok),
              static_cast<unsigned long long>(counts.failed),
              static_cast<unsigned long long>(counts.hits));
  for (const std::string& e : counts.errors) {
    std::printf("  failure: %s\n", e.c_str());
  }
}

/// Checks a sample of the workload's seeds, answered by the service with
/// the workload's plan, against the exact HKPR vector.
void CheckAccuracy(const Workload& workload, ServingStack& stack,
                   const std::vector<uint32_t>& seeds, RunReport* report) {
  const hkpr::Graph& graph = *stack.graph;
  const hkpr::ApproxParams params = ServiceParams(graph.NumNodes());
  hkpr::SubmitOptions submit;
  submit.plan.t = workload.t;
  for (size_t i = 0; i < workload.accuracy_seeds && i < seeds.size(); ++i) {
    const hkpr::QueryResult result =
        stack.service->Submit(ServingStack::kGraphName, seeds[i], submit)
            .result.get();
    if (result.status != hkpr::QueryStatus::kOk || !result.estimate) {
      report->Fail("accuracy query for seed " + std::to_string(seeds[i]) +
                   " returned " + hkpr::QueryStatusName(result.status));
      continue;
    }
    const std::vector<double> exact =
        hkpr::ExactHkpr(graph, workload.t, seeds[i]);
    const size_t violations =
        hkpr::CountApproxViolations(graph, *result.estimate, exact,
                                    params.eps_r, params.delta,
                                    kAccuracySlack);
    std::printf("accuracy: seed=%u violations=%zu\n", seeds[i], violations);
    if (violations > 0) {
      report->Fail("seed " + std::to_string(seeds[i]) + ": " +
                   std::to_string(violations) +
                   " nodes outside the (d, eps_r, delta) guarantee");
    }
  }
}

/// The end-to-end run. Returns false (with `error`) when set-up failed or
/// the run was invalid.
bool RunEndToEnd(const Workload& workload, const std::string& graph_path,
                 uint64_t seed, double seconds, RunReport* report,
                 std::string* error) {
  std::vector<double> setup_s;
  std::unique_ptr<ServingStack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    SetupTiming timing;
    stack = StartStack(workload, graph_path, seed, /*telemetry=*/false,
                       &timing, error);
    if (stack == nullptr) return false;
    setup_s.push_back(timing.total_s);
  }
  const std::string suffix = QuerySuffix(workload);
  const double open_s = seconds * workload.open_share;
  const double closed_s = seconds - open_s;
  const WorkloadInputs inputs = MakeInputs(workload, *stack, seed, open_s);

  RequestCounts open_counts;
  const OpenLoopResult open =
      RunOpenLoopAttempts(workload, *stack, &open_counts, [&] {
        return RunOpenLoop(stack->connections, inputs.schedule,
                           inputs.open_seeds, suffix, /*drain_s=*/10.0);
      });
  const double lag_p99_us = NearestRank(open.lag_us, 0.99);
  const double achieved_ratio = AchievedOverOffered(open);
  std::printf("open-loop: offered=%.1fqps achieved=%.1fqps lag_p99=%.1fus "
              "samples=%zu beyond_p99=%zu\n",
              open.offered_qps, open.achieved_qps, lag_p99_us,
              open.latency_ms.size(),
              SamplesBeyond(open.latency_ms.size(), 0.99));
  PrintCounts("open-loop", open_counts);

  ClosedLoopSeeds closed_seeds(workload, inputs, stack->hot_set,
                               stack->connections.size(), seed);
  const Capacity closed =
      MeasureCapacity(workload, *stack, closed_seeds, closed_s);
  std::printf("closed-loop: connections=%zu segment_qps=",
              stack->connections.size());
  for (double qps : closed.segment_qps) std::printf(" %.1f", qps);
  std::printf("\n");
  PrintCounts("closed-loop", closed.counts);

  report->attempted = open_counts.sent + closed.counts.sent;
  report->failed = open_counts.failed + closed.counts.failed;
  if (report->failed > 0) {
    report->Fail(std::to_string(report->failed) + " requests failed");
  }
  if (closed.counts.ok == 0) report->Fail("closed loop completed nothing");

  // Regime purity: a cold workload never touches a cached estimate; a warm
  // one is served entirely from the hot set the warm pass computed.
  const hkpr::ServiceStatsSnapshot stats =
      stack->service->StatsFor(ServingStack::kGraphName);
  std::printf("service: completed=%llu cache_hits=%llu cache_misses=%llu "
              "coalesced=%llu rejected=%llu\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(stats.rejected));
  const uint64_t timed_hits = open_counts.hits + closed.counts.hits;
  const uint64_t timed_ok = open_counts.ok + closed.counts.ok;
  if (workload.warm) {
    if (timed_hits != timed_ok ||
        stats.cache_misses != stack->hot_set.size() ||
        stats.coalesced != 0) {
      report->Fail("warm regime not pure: " + std::to_string(timed_hits) +
                   " hits of " + std::to_string(timed_ok) + " responses, " +
                   std::to_string(stats.cache_misses) + " misses");
    }
  } else if (timed_hits != 0 || stats.cache_hits != 0 ||
             stats.coalesced != 0) {
    report->Fail("cold regime not pure: " + std::to_string(stats.cache_hits) +
                 " hits, " + std::to_string(stats.coalesced) + " coalesced");
  }
  CheckAccuracy(workload, *stack,
                workload.warm ? stack->hot_set : inputs.distinct, report);
  stack.reset();

  const double p99_ms = SegmentedPercentile(open.latency_ms, 0.99);
  if (!OpenLoopValid(lag_p99_us, p99_ms, achieved_ratio)) {
    *error = "invalid run (" + std::to_string(kOpenLoopAttempts) +
             " open-loop attempts): generator lag p99 " +
             std::to_string(lag_p99_us) +
             " us against latency p99 " + std::to_string(p99_ms) +
             " ms, achieved/offered " + std::to_string(achieved_ratio);
    return false;
  }
  if (!SupportsPercentile(open.latency_ms.size(), 0.99)) {
    *error = "invalid run: " + std::to_string(open.latency_ms.size()) +
             " latency samples leave fewer than " +
             std::to_string(kMinSamplesBeyond) +
             " beyond p99; lengthen --seconds";
    return false;
  }
  // p99 is printed but kept out of the JSON result, which a regression gate
  // reads: on a shared virtualized host its run-to-run spread (IQR/median
  // over 10 seeds: 0.31-0.52 on cold-push, 0.64-0.74 on warm-hits) exceeds
  // any bound such a gate can use.
  std::printf("metric %-28s %14.6f ms (printed only, not in the result)\n",
              "latency_p99_ms", p99_ms);
  report->metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"latency_p50_ms", SegmentedPercentile(open.latency_ms, 0.50), "ms"},
      {"throughput_qps", closed.qps, "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return true;
}

void PrintJson(const RunReport& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hkpr_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data-dir DIR [--prepare]\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload \"%s\" (cold-push, warm-hits, "
                 "walk-heavy)\n", args.workload.c_str());
    return 2;
  }
  std::string error;
  if (args.prepare) {
    if (!PreparePreset(args.data_dir, workload->preset, &error)) {
      std::fprintf(stderr, "prepare: %s\n", error.c_str());
      return 3;
    }
    return 0;
  }
  const std::string graph_path = PresetPath(args.data_dir, workload->preset);
  std::printf("perfbench workload=%s preset=%s seed=%llu seconds=%g trace=%d\n",
              workload->name.c_str(), workload->preset.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  RunReport report;
  const bool ran =
      args.trace ? RunTraced(*workload, graph_path, args.seed, args.seconds,
                             &report, &error)
                 : RunEndToEnd(*workload, graph_path, args.seed, args.seconds,
                               &report, &error);
  if (!ran) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 3;
  }
  for (const Metric& m : report.metrics) {
    std::printf("metric %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& why : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  PrintJson(report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
