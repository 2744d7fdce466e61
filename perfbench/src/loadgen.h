// Load generator for the serving benchmark: arrival schedules, nearest-rank
// percentiles, response checking, and the open- and closed-loop TCP loops
// that speak the hkpr line protocol to a SocketServer.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ statistics --

/// Nearest-rank percentile of `values` (need not be sorted): the smallest
/// sample with at least a fraction `q` of the samples at or below it, i.e.
/// the ceil(q * n)-th smallest. 0 for an empty input.
double NearestRank(std::vector<double> values, double q);

/// How many samples lie strictly above the nearest-rank `q` position of a
/// sample of size `n`: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// A percentile is reported only when at least this many samples lie beyond
/// it; below that it is set by a handful of outliers.
inline constexpr size_t kMinSamplesBeyond = 10;

/// True when a sample of size `n` supports reporting the `q` percentile.
inline bool SupportsPercentile(size_t n, double q) {
  return n > 0 && SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

/// A percentile robust to bursts of noise: `values` (in the order they were
/// taken) is cut into as many consecutive equal segments as keep every
/// segment supporting `q` (SupportsPercentile), and the result is the
/// median of the segments' nearest-rank `q` percentiles: the percentile of
/// a typical stretch of the run. With one segment it is NearestRank.
double SegmentedPercentile(const std::vector<double>& values, double q);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// ------------------------------------------------------------- schedules --

/// Poisson arrival offsets (seconds from the start) at `rate_qps` over
/// `duration_s`, drawn up front from `seed`: the same seed gives the same
/// schedule.
std::vector<double> PoissonSchedule(double rate_qps, double duration_s,
                                    uint64_t seed);

/// The first `count` entries of a uniformly random permutation of [0, n),
/// drawn from `seed` (distinct seeds for the cold workloads).
std::vector<uint32_t> DistinctNodes(uint32_t n, size_t count, uint64_t seed);

/// Zipfian ranks: P(rank i) proportional to 1 / (i + 1)^exponent over
/// [0, size).
class ZipfSampler {
 public:
  ZipfSampler(size_t size, double exponent);
  /// Maps a uniform draw in [0, 1) to a rank.
  size_t RankFor(double uniform) const;

 private:
  std::vector<double> cdf_;
};

// -------------------------------------------------------------- responses --

/// The fields of one `query` response line the benchmark checks.
struct QueryResponse {
  uint32_t seed = 0;
  std::string backend;
  uint64_t nnz = 0;
  double sum = 0.0;
  bool cache_hit = false;
};

/// Parses and checks one response line for a `query <expected_seed>`
/// request: it must be an `ok` line carrying seed=<expected_seed>,
/// backend=tea+, nnz > 0, a finite sum and cache=hit|miss. Returns the
/// empty string when valid, otherwise why not (an `err` line's text, a
/// wrong seed, a missing field).
std::string CheckQueryResponse(std::string_view line, uint32_t expected_seed,
                               QueryResponse* out);

// ------------------------------------------------------------------- TCP --

/// One blocking loopback TCP client connection speaking the line protocol.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects to 127.0.0.1:`port` with TCP_NODELAY. False on failure.
  bool Connect(uint16_t port);
  bool SendLine(const std::string& line);
  /// Blocks until one full line (without its newline) is read. False when
  /// the peer closed or the read failed.
  bool ReadLine(std::string* line);
  /// One read() call: appends every complete line now buffered to `lines`.
  /// False when the peer closed or the read failed.
  bool ReadAvailable(std::vector<std::string>* lines);
  int fd() const { return fd_; }

 private:
  bool TakeLine(std::string* line);
  int fd_ = -1;
  std::string buf_;
};

/// Counts shared by both loops. `hits` counts valid responses served from
/// the cache; every invalid or missing response is in `failed`.
struct RequestCounts {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t hits = 0;
  /// The first kMaxErrors failure reasons, for the report.
  static constexpr size_t kMaxErrors = 5;
  std::vector<std::string> errors;
  void Record(const std::string& error, const QueryResponse& response);
  void Add(const RequestCounts& other);
};

/// Open loop: request i goes out at start + schedule[i] (seconds), whether
/// or not earlier requests have been answered, on the connection with the
/// fewest outstanding requests. Latency is timed from the *intended* send time, so a stall
/// also charges the requests queued behind it.
struct OpenLoopResult {
  RequestCounts counts;
  std::vector<double> latency_ms;  ///< one per valid response
  std::vector<double> lag_us;      ///< actual minus intended send time
  double offered_qps = 0.0;        ///< requests / schedule span
  double achieved_qps = 0.0;       ///< responses / (last response - start)
};

/// Runs the open loop on one thread. `query_suffix` is appended to every
/// `query <seed>` line (e.g. " t=10"). Requests unanswered `drain_s`
/// seconds after the last send count as failed.
OpenLoopResult RunOpenLoop(std::vector<Connection>& connections,
                           const std::vector<double>& schedule,
                           const std::vector<uint32_t>& seeds,
                           const std::string& query_suffix, double drain_s);

/// Closed loop: one thread per connection, each keeping one request
/// outstanding for `duration_s`. `next_seed(connection, &seed)` supplies
/// the next seed (it must be thread-safe across connections) and returns
/// false when the workload has no more seeds.
struct ClosedLoopResult {
  RequestCounts counts;
  double qps = 0.0;  ///< valid responses per second
};

ClosedLoopResult RunClosedLoop(
    std::vector<Connection>& connections,
    const std::function<bool(size_t, uint32_t*)>& next_seed,
    const std::string& query_suffix, double duration_s);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
