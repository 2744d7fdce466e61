// Shared pieces of the serving benchmark: workload definitions, the serving
// stack it drives (SocketServer -> CommandProcessor -> MultiGraphService ->
// TEA+), and the metric report.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "hkpr/params.h"
#include "loadgen.h"
#include "net/command_processor.h"
#include "net/socket_server.h"
#include "net/tenant.h"
#include "service/graph_store.h"
#include "service/multi_graph_service.h"

namespace perfbench {

/// One named traffic mix. Rates and shares are fixed here, never
/// calibrated during a run.
struct Workload {
  std::string name;
  std::string preset;  ///< "rmat-small" or "rmat-medium"
  /// Heat constant of every query; values other than the service default
  /// (5) travel as a `t=` protocol token.
  double t = 5.0;
  /// Warm workloads compute a hot set during set-up and then request only
  /// it (zipfian), so every timed response is a cache hit. Cold ones send
  /// a distinct seed per request.
  bool warm = false;
  size_t hot_set_size = 0;
  double zipf_exponent = 0.99;
  double open_rate_qps = 0.0;  ///< open-loop Poisson offered rate
  double open_share = 0.7;     ///< share of --seconds spent in the open loop
  size_t connections = 4;
  /// Service workers.
  uint32_t workers = 2;
  size_t cache_capacity = 4096;
  size_t accuracy_seeds = 3;  ///< seeds checked against the exact vector
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// The `query` line suffix carrying the workload's plan tokens.
std::string QuerySuffix(const Workload& workload);

/// Service defaults, as in the hkpr_server example: t=5, eps_r=0.5,
/// delta=1/n, p_f=1e-6.
hkpr::ApproxParams ServiceParams(uint32_t num_nodes);

/// The edge-list file a preset is read from, under `data_dir`.
std::string PresetPath(const std::string& data_dir, const std::string& preset);

/// Writes the preset's edge list unless it already exists (input
/// preparation; never timed). Returns false with a message on failure.
bool PreparePreset(const std::string& data_dir, const std::string& preset,
                   std::string* error);

/// Set-up is repeated and its median reported, so one slow start does not
/// move setup_s.
inline constexpr int kSetupReps = 9;

/// An open loop is invalid, not reported, when the achieved rate fell this
/// far below the offered one (a backlog), or when the generator's p99
/// lateness exceeded kMaxLagP99Us or a tenth of the p99 latency, whichever
/// is larger: lateness below that cannot move the reported p99 by more
/// than a tenth.
inline constexpr double kMinAchievedOverOffered = 0.95;
inline constexpr double kMaxLagP99Us = 1000.0;
inline bool OpenLoopValid(double lag_p99_us, double latency_p99_ms,
                          double achieved_over_offered) {
  return achieved_over_offered >= kMinAchievedOverOffered &&
         lag_p99_us <= std::max(kMaxLagP99Us, 100.0 * latency_p99_ms);
}
inline double AchievedOverOffered(const OpenLoopResult& open) {
  return open.offered_qps > 0.0 ? open.achieved_qps / open.offered_qps : 0.0;
}
inline bool OpenLoopValid(const OpenLoopResult& open) {
  return OpenLoopValid(NearestRank(open.lag_us, 0.99),
                       SegmentedPercentile(open.latency_ms, 0.99),
                       AchievedOverOffered(open));
}

/// A host stall of a few hundred milliseconds on the generator's CPU makes
/// an open loop invalid. Such an attempt is discarded and the open loop run
/// again on the same schedule, up to this many times; the run is invalid
/// only when every attempt was.
inline constexpr int kOpenLoopAttempts = 3;

/// Where set-up time went, for one start of the stack.
struct SetupTiming {
  double load_s = 0.0;     ///< LoadEdgeList
  double publish_s = 0.0;  ///< GraphStore::Publish
  double total_s = 0.0;    ///< load through the end of the warm pass
};

/// The serving stack under test plus the benchmark's client connections.
/// Members are declared in dependency order, so destruction closes the
/// clients, stops the server and drains the service before the store goes.
struct ServingStack {
  static constexpr const char* kGraphName = "bench";

  hkpr::GraphStore store;
  hkpr::TenantRegistry tenants;
  std::unique_ptr<hkpr::MultiGraphService> service;
  std::unique_ptr<hkpr::CommandProcessor> processor;
  std::unique_ptr<hkpr::SocketServer> server;
  std::vector<Connection> connections;
  std::shared_ptr<const hkpr::Graph> graph;
  /// The run's seed order: a random permutation of every node, drawn from
  /// the run seed. Cold workloads request it front to back; its last
  /// kReservedSeeds entries are kept out of the timed loops for set-up's
  /// warm pass and the traced run's hit-path loops.
  std::vector<uint32_t> order;
  /// Warm workloads: the prefix of `order` they request (empty when cold).
  std::vector<uint32_t> hot_set;
};

/// Seeds at the end of ServingStack::order that no timed loop requests.
inline constexpr size_t kReservedSeeds = 256;
/// Cold workloads' warm pass: the last seeds of the reserved tail, so the
/// workers' workspaces have grown before the first timed request.
inline constexpr size_t kColdWarmupSeeds = 32;

/// With two or more CPUs, the serving stack's threads run on all but the
/// last one and the load generator on the last, so a spinning generator
/// never competes with the server for a core. StartStack pins the calling
/// thread to the server CPUs while it builds the stack (threads inherit the
/// mask) and to the generator CPU before it returns.
void PinToServerCpus();
void PinToGeneratorCpu();

/// Loads the preset through LoadEdgeList, publishes it, starts the service
/// and the socket server, connects the workload's clients and, for warm
/// workloads, computes the hot set over TCP (cold workloads warm up on
/// kColdWarmupSeeds reserved seeds instead). `telemetry` switches the
/// service's stage tracing and routing-event log. Null (with `error` set)
/// on any failure.
std::unique_ptr<ServingStack> StartStack(const Workload& workload,
                                         const std::string& graph_path,
                                         uint64_t seed, bool telemetry,
                                         SetupTiming* timing,
                                         std::string* error);

/// A run's requests, all drawn up front from the run seed.
struct WorkloadInputs {
  /// Open-loop arrival offsets and the seed each arrival queries.
  std::vector<double> schedule;
  std::vector<uint32_t> open_seeds;
  /// Cold workloads: ServingStack::order without its reserved tail. The
  /// open loop takes a shuffled prefix and the closed loops its second
  /// half, so no seed is ever requested twice. Empty for warm workloads.
  std::vector<uint32_t> distinct;
};

WorkloadInputs MakeInputs(const Workload& workload, const ServingStack& stack,
                          uint64_t seed, double open_s);

/// Runs `attempt`, one open loop, until its result is OpenLoopValid or
/// kOpenLoopAttempts have run, and returns the last result. Before a repeat
/// a cold workload's cache is emptied, so the repeat misses as the first
/// attempt did. `all` adds up the requests of every attempt, discarded ones
/// included, so their responses are checked too.
OpenLoopResult RunOpenLoopAttempts(
    const Workload& workload, ServingStack& stack, RequestCounts* all,
    const std::function<OpenLoopResult()>& attempt);

/// Seeds for closed loops: the next distinct seed from the second half of
/// the fixed order, the same sequence in every run (cold), or a
/// per-connection zipfian draw over the hot set (warm). Next() may be
/// called concurrently for distinct connections.
class ClosedLoopSeeds {
 public:
  ClosedLoopSeeds(const Workload& workload, const WorkloadInputs& inputs,
                  const std::vector<uint32_t>& hot_set, size_t connections,
                  uint64_t seed);
  bool Next(size_t connection, uint32_t* seed);
  /// Cold: starts the distinct sequence over (the caller empties the
  /// cache first). Warm: no effect.
  void Restart() { next_distinct_ = distinct_.size() / 2; }

 private:
  const std::vector<uint32_t>& distinct_;
  const std::vector<uint32_t>& hot_set_;
  std::atomic<size_t> next_distinct_;
  ZipfSampler zipf_;
  std::vector<hkpr::Rng> rngs_;  // one per connection
};

/// Closed-loop capacity over `seconds`, split into kCapacitySegments
/// back-to-back closed loops; `qps` is the median segment's, so a burst of
/// machine noise in one segment does not move it. Cold workloads restart
/// the same seed sequence in every segment, with the cache emptied first,
/// so segments differ only by noise.
inline constexpr int kCapacitySegments = 15;
struct Capacity {
  RequestCounts counts;
  std::vector<double> segment_qps;
  double qps = 0.0;
};
Capacity MeasureCapacity(const Workload& workload, ServingStack& stack,
                         ClosedLoopSeeds& seeds, double seconds);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why `correct` is false, for the text report.
  std::vector<std::string> check_failures;
  void Fail(const std::string& why);
};

/// Derives an independent stream seed for one purpose from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

/// Peak resident set of this process, MB.
double PeakRssMb();

/// The traced run: per-layer metrics and their reconciliation checks.
/// Returns false (with `error` set) when the run could not be carried out
/// or was invalid.
bool RunTraced(const Workload& workload, const std::string& graph_path,
               uint64_t seed, double seconds, RunReport* report,
               std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
