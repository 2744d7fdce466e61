// Micro-benchmarks of the primitives (google-benchmark): push throughput,
// walk throughput, alias construction/sampling, sweep, conductance, exact
// power method.
//
// --json=PATH writes the per-benchmark results as
// {"benchmark": "micro_primitives", "rows": [...]} — the same envelope the
// hand-rolled benches emit — so trajectory tooling can consume every
// bench's output uniformly. The flag is stripped before google-benchmark
// sees argv; all native --benchmark_* flags still work.

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "clustering/sweep.h"
#include "common/alias_sampler.h"
#include "common/random.h"
#include "graph/generators.h"
#include "hkpr/heat_kernel.h"
#include "hkpr/power_method.h"
#include "hkpr/push.h"
#include "hkpr/random_walk.h"
#include "hkpr/tea_plus.h"
#include "hkpr/workspace.h"

namespace {

using namespace hkpr;

const Graph& BenchGraph() {
  static const Graph graph = PowerlawCluster(20000, 5, 0.3, 42);
  return graph;
}

void BM_HkPush(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const HeatKernel kernel(5.0);
  const double r_max = 1.0 / static_cast<double>(state.range(0));
  uint64_t ops = 0;
  for (auto _ : state) {
    PushResult result = HkPush(graph, kernel, 7, r_max);
    ops += result.push_operations;
    benchmark::DoNotOptimize(result.reserve);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_HkPush)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_HkPushPlus(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const HeatKernel kernel(5.0);
  HkPushPlusOptions options;
  options.eps_r = 0.5;
  options.delta = 1.0 / static_cast<double>(state.range(0));
  options.hop_cap = 10;
  options.push_budget = 100'000'000;
  uint64_t ops = 0;
  for (auto _ : state) {
    PushResult result = HkPushPlus(graph, kernel, 7, options);
    ops += result.push_operations;
    benchmark::DoNotOptimize(result.reserve);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_HkPushPlus)->Arg(100000)->Arg(1000000)->Arg(10000000);

// The R-MAT scaling presets with graph seed 42 (the perfbench graphs):
// 0 = small, 1 = medium, 2 = large.
const Dataset& RmatPreset(int64_t index) {
  if (index == 0) {
    static const Dataset small = bench::MakeScaledGraph("small", 42);
    return small;
  }
  if (index == 1) {
    static const Dataset medium = bench::MakeScaledGraph("medium", 42);
    return medium;
  }
  static const Dataset large = bench::MakeScaledGraph("large", 42);
  return large;
}

/// FNV-1a over the bits of a push phase's output: the result entries, every
/// residue hop's entries and sum, and the work counters, in order.
uint64_t PushChecksum(uint64_t hash, const QueryWorkspace& ws,
                      const PushCounters& counters) {
  const auto mix = [&hash](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  };
  const auto mix_double = [&mix](double x) {
    mix(std::bit_cast<uint64_t>(x));
  };
  for (const auto& e : ws.result.entries()) {
    mix(e.key);
    mix_double(e.value);
  }
  for (uint32_t k = 0; k <= ws.residues.max_hop(); ++k) {
    for (const ResidueEntry& e : ws.residues.Hop(k)) {
      mix(e.key);
      mix_double(e.value);
    }
    mix_double(ws.residues.HopSum(k));
  }
  mix(counters.push_operations);
  mix(counters.entries_processed);
  mix(counters.hit_absolute_target ? 1 : 0);
  mix(counters.hit_budget ? 1 : 0);
  return hash;
}

// The serving push kernel: HK-Push+ into one reused QueryWorkspace with
// TEA+'s service settings (t=5, eps_r=0.5, delta=1/n, its hop cap and push
// budget) over a fixed cycle of uniform seeds on an R-MAT preset (arg 0 =
// small, 1 = medium, 2 = large). items_per_second is push operations per
// second. After timing, one untimed pass over the seed cycle hashes every
// query's output: the `checksum` counter (the 64-bit FNV-1a folded to 32
// bits, exact in a double) and the label's fnv= (all 64 bits) only change
// when a kernel change moves results.
void BM_HkPushPlusInto(benchmark::State& state) {
  const Dataset& preset = RmatPreset(state.range(0));
  const Graph& graph = preset.graph;
  ApproxParams params;
  params.delta = 1.0 / static_cast<double>(graph.NumNodes());
  const TeaPlusEstimator tea_plus(graph, params, 0);
  const HeatKernel kernel(params.t);
  HkPushPlusOptions options;
  options.eps_r = params.eps_r;
  options.delta = params.delta;
  options.hop_cap = tea_plus.hop_cap();
  options.push_budget = tea_plus.push_budget();
  Rng rng(5);
  std::vector<NodeId> seeds(256);
  for (NodeId& seed : seeds) {
    seed = static_cast<NodeId>(rng.UniformInt(graph.NumNodes()));
  }
  QueryWorkspace ws;
  uint64_t ops = 0;
  size_t next = 0;
  for (auto _ : state) {
    const PushCounters counters =
        HkPushPlusInto(graph, kernel, seeds[next], options, ws);
    next = (next + 1) % seeds.size();
    ops += counters.push_operations;
    benchmark::DoNotOptimize(ws.result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
  uint64_t checksum = 14695981039346656037ULL;
  for (NodeId seed : seeds) {
    const PushCounters counters =
        HkPushPlusInto(graph, kernel, seed, options, ws);
    checksum = PushChecksum(checksum, ws, counters);
  }
  state.counters["checksum"] =
      static_cast<double>(static_cast<uint32_t>(checksum ^ (checksum >> 32)));
  char label[64];
  std::snprintf(label, sizeof(label), "%s fnv=%016llx", preset.name.c_str(),
                static_cast<unsigned long long>(checksum));
  state.SetLabel(label);
}
BENCHMARK(BM_HkPushPlusInto)->Arg(0)->Arg(1)->Arg(2);

void BM_KRandomWalk(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const HeatKernel kernel(static_cast<double>(state.range(0)));
  Rng rng(1);
  uint64_t steps = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KRandomWalk(graph, kernel, 7, 0, rng, &steps));
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_KRandomWalk)->Arg(5)->Arg(20)->Arg(40);

void BM_AliasBuild(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> weights(state.range(0));
  for (double& w : weights) w = rng.UniformDouble() + 1e-9;
  for (auto _ : state) {
    AliasSampler alias(weights);
    benchmark::DoNotOptimize(alias);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AliasBuild)->Arg(1024)->Arg(65536)->Arg(1048576);

void BM_AliasSample(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> weights(65536);
  for (double& w : weights) w = rng.UniformDouble() + 1e-9;
  AliasSampler alias(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alias.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSample);

void BM_SweepCut(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const std::vector<double> exact = ExactHkpr(graph, 5.0, 7);
  SparseVector estimate;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    if (exact[v] > 1e-8) estimate.Add(v, exact[v]);
  }
  for (auto _ : state) {
    SweepResult result = SweepCut(graph, estimate);
    benchmark::DoNotOptimize(result.conductance);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(estimate.nnz()));
}
BENCHMARK(BM_SweepCut);

void BM_PowerMethod(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const HeatKernel kernel(5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactHkpr(graph, kernel, 7));
  }
}
BENCHMARK(BM_PowerMethod);

void BM_PoissonSample(benchmark::State& state) {
  const HeatKernel kernel(5.0);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.SamplePoissonLength(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoissonSample);

// Console output as usual, plus one collected row per non-aggregate run
// for the --json= envelope.
class JsonRowReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    int64_t iterations;
    double real_ns;   // per-iteration wall time
    double cpu_ns;    // per-iteration cpu time
    double items_per_sec;  // 0 when the benchmark reports no item counter
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = static_cast<int64_t>(run.iterations);
      const double iters =
          run.iterations == 0 ? 1.0 : static_cast<double>(run.iterations);
      row.real_ns = run.real_accumulated_time / iters * 1e9;
      row.cpu_ns = run.cpu_accumulated_time / iters * 1e9;
      const auto it = run.counters.find("items_per_second");
      row.items_per_sec = it == run.counters.end() ? 0.0 : it->second.value;
      rows_.push_back(row);
    }
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

void WriteMicroJson(const std::string& path,
                    const std::vector<JsonRowReporter::Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"micro_primitives\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRowReporter::Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"iterations\": %lld, "
                 "\"real_ns\": %.2f, \"cpu_ns\": %.2f, "
                 "\"items_per_sec\": %.1f}%s\n",
                 r.name.c_str(), static_cast<long long>(r.iterations),
                 r.real_ns, r.cpu_ns, r.items_per_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  // Pull out --json= before google-benchmark validates the flags it owns.
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  JsonRowReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) WriteMicroJson(json_path, reporter.rows());
  return 0;
}
