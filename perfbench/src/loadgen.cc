#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <thread>
#include <utility>

#include "common/random.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// How long before a scheduled send the open loop stops sleeping and
/// polls without blocking.
constexpr auto kSpinWindow = std::chrono::milliseconds(2);

/// Blocking reads give up after this long.
constexpr time_t kResponseTimeoutS = 30;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Clock::time_point At(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

/// The value of `key=` in a space-separated response line, or empty.
std::string_view Field(std::string_view line, std::string_view key) {
  size_t pos = 0;
  while (pos < line.size()) {
    size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view token = line.substr(pos, end - pos);
    if (token.size() > key.size() && token.substr(0, key.size()) == key &&
        token[key.size()] == '=') {
      return token.substr(key.size() + 1);
    }
    pos = end + 1;
  }
  return {};
}

bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

std::string QueryLine(uint32_t seed, const std::string& suffix) {
  return "query " + std::to_string(seed) + suffix;
}

}  // namespace

// ------------------------------------------------------------ statistics --

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

double SegmentedPercentile(const std::vector<double>& values, double q) {
  size_t min_segment = 1;
  while (!SupportsPercentile(min_segment, q)) ++min_segment;
  const size_t segments = std::max<size_t>(values.size() / min_segment, 1);
  std::vector<double> per_segment;
  for (size_t k = 0; k < segments; ++k) {
    per_segment.push_back(NearestRank(
        std::vector<double>(values.begin() + k * values.size() / segments,
                            values.begin() + (k + 1) * values.size() / segments),
        q));
  }
  return Median(per_segment);
}

double Median(std::vector<double> values) { return NearestRank(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ------------------------------------------------------------- schedules --

std::vector<double> PoissonSchedule(double rate_qps, double duration_s,
                                    uint64_t seed) {
  std::vector<double> schedule;
  if (rate_qps <= 0.0) return schedule;
  hkpr::Rng rng(seed);
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.UniformDouble()) / rate_qps;
    if (t >= duration_s) break;
    schedule.push_back(t);
  }
  return schedule;
}

std::vector<uint32_t> DistinctNodes(uint32_t n, size_t count, uint64_t seed) {
  count = std::min<size_t>(count, n);
  std::vector<uint32_t> nodes(n);
  for (uint32_t i = 0; i < n; ++i) nodes[i] = i;
  hkpr::Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + rng.UniformInt(n - i);
    std::swap(nodes[i], nodes[j]);
  }
  nodes.resize(count);
  return nodes;
}

ZipfSampler::ZipfSampler(size_t size, double exponent) : cdf_(size) {
  double total = 0.0;
  for (size_t i = 0; i < size; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::RankFor(double uniform) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), uniform);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

// -------------------------------------------------------------- responses --

std::string CheckQueryResponse(std::string_view line, uint32_t expected_seed,
                               QueryResponse* out) {
  if (line.substr(0, 3) != "ok ") {
    return "not ok: " + std::string(line.substr(0, 120));
  }
  uint64_t seed = 0;
  if (!ParseU64(Field(line, "seed"), &seed)) return "no seed= field";
  if (seed != expected_seed) {
    return "seed=" + std::to_string(seed) + " answered for requested seed " +
           std::to_string(expected_seed);
  }
  const std::string_view backend = Field(line, "backend");
  if (backend != "tea+") return "backend=" + std::string(backend);
  uint64_t nnz = 0;
  if (!ParseU64(Field(line, "nnz"), &nnz) || nnz == 0) {
    return "nnz missing or 0";
  }
  const std::string sum_text(Field(line, "sum"));
  char* end = nullptr;
  const double sum = std::strtod(sum_text.c_str(), &end);
  if (sum_text.empty() || end != sum_text.c_str() + sum_text.size() ||
      !std::isfinite(sum)) {
    return "sum missing or not finite";
  }
  const std::string_view cache = Field(line, "cache");
  if (cache != "hit" && cache != "miss") return "cache field missing";
  out->seed = static_cast<uint32_t>(seed);
  out->backend = std::string(backend);
  out->nnz = nnz;
  out->sum = sum;
  out->cache_hit = cache == "hit";
  return {};
}

// ------------------------------------------------------------------- TCP --

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

Connection::Connection(Connection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buf_(std::move(other.buf_)) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buf_ = std::move(other.buf_);
  }
  return *this;
}

bool Connection::Connect(uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A response that never comes fails the read instead of hanging the run.
  const timeval timeout{kResponseTimeoutS, 0};
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return true;
}

bool Connection::SendLine(const std::string& line) {
  std::string data = line + "\n";
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = send(fd_, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Connection::TakeLine(std::string* line) {
  const size_t nl = buf_.find('\n');
  if (nl == std::string::npos) return false;
  line->assign(buf_, 0, nl);
  buf_.erase(0, nl + 1);
  return true;
}

bool Connection::ReadLine(std::string* line) {
  while (!TakeLine(line)) {
    char chunk[4096];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
  return true;
}

bool Connection::ReadAvailable(std::vector<std::string>* lines) {
  char chunk[16384];
  ssize_t n = 0;
  do {
    n = recv(fd_, chunk, sizeof(chunk), 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;
  buf_.append(chunk, static_cast<size_t>(n));
  std::string line;
  while (TakeLine(&line)) lines->push_back(std::move(line));
  return true;
}

void RequestCounts::Record(const std::string& error,
                           const QueryResponse& response) {
  if (error.empty()) {
    ++ok;
    if (response.cache_hit) ++hits;
    return;
  }
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(error);
}

void RequestCounts::Add(const RequestCounts& other) {
  sent += other.sent;
  ok += other.ok;
  failed += other.failed;
  hits += other.hits;
  for (const std::string& e : other.errors) {
    if (errors.size() < kMaxErrors) errors.push_back(e);
  }
}

// ------------------------------------------------------------- open loop --

OpenLoopResult RunOpenLoop(std::vector<Connection>& connections,
                           const std::vector<double>& schedule,
                           const std::vector<uint32_t>& seeds,
                           const std::string& query_suffix, double drain_s) {
  OpenLoopResult result;
  const size_t total = std::min(schedule.size(), seeds.size());
  const size_t num_conns = connections.size();
  if (total == 0 || num_conns == 0) return result;
  result.latency_ms.reserve(total);
  result.lag_us.reserve(total);

  std::vector<std::deque<size_t>> outstanding(num_conns);
  std::vector<bool> open(num_conns, true);
  std::vector<pollfd> fds(num_conns);
  for (size_t c = 0; c < num_conns; ++c) {
    fds[c] = {connections[c].fd(), POLLIN, 0};
  }
  size_t in_flight = 0;
  size_t next = 0;
  Clock::time_point last_response{};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point last_due = At(start, schedule[total - 1]);
  const Clock::time_point drain_deadline = At(last_due, drain_s);
  std::vector<std::string> lines;

  const auto fail_connection = [&](size_t c, const char* why) {
    open[c] = false;
    fds[c].fd = -1;
    for (size_t i = 0; i < outstanding[c].size(); ++i) {
      result.counts.Record(why, QueryResponse{});
    }
    in_flight -= outstanding[c].size();
    outstanding[c].clear();
  };

  while (next < total || in_flight > 0) {
    Clock::time_point now = Clock::now();
    while (next < total && At(start, schedule[next]) <= now) {
      // Like a client's connection pool: the connection with the fewest
      // outstanding requests, so a request waits behind another on one
      // connection only when all are busy.
      size_t c = next % num_conns;
      for (size_t k = 1; k < num_conns; ++k) {
        const size_t candidate = (next + k) % num_conns;
        if (outstanding[candidate].size() < outstanding[c].size()) {
          c = candidate;
        }
      }
      const Clock::time_point due = At(start, schedule[next]);
      ++result.counts.sent;
      if (!open[c] ||
          !connections[c].SendLine(QueryLine(seeds[next], query_suffix))) {
        result.counts.Record("send failed", QueryResponse{});
      } else {
        result.lag_us.push_back(SecondsBetween(due, Clock::now()) * 1e6);
        outstanding[c].push_back(next);
        ++in_flight;
      }
      ++next;
      now = Clock::now();
    }
    if (next >= total && now >= drain_deadline) break;
    // Sleep until shortly before the next send, then spin: timer wake-ups
    // on a virtualized host overshoot by up to milliseconds at p99.
    Clock::time_point wake = drain_deadline;
    if (next < total) {
      wake = std::max(now, At(start, schedule[next]) - kSpinWindow);
    }
    const auto wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
            .count();
    timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                     static_cast<long>(wait_ns % 1000000000)};
    const int ready = ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    const Clock::time_point received = Clock::now();
    for (size_t c = 0; c < num_conns; ++c) {
      if (!open[c] || fds[c].revents == 0) continue;
      lines.clear();
      const bool alive = connections[c].ReadAvailable(&lines);
      for (const std::string& line : lines) {
        if (outstanding[c].empty()) {
          result.counts.Record("unsolicited response: " + line,
                               QueryResponse{});
          continue;
        }
        const size_t index = outstanding[c].front();
        outstanding[c].pop_front();
        --in_flight;
        QueryResponse response;
        const std::string error =
            CheckQueryResponse(line, seeds[index], &response);
        result.counts.Record(error, response);
        if (error.empty()) {
          result.latency_ms.push_back(
              SecondsBetween(At(start, schedule[index]), received) * 1e3);
          last_response = received;
        }
      }
      if (!alive) fail_connection(c, "connection closed");
    }
  }
  for (size_t c = 0; c < num_conns; ++c) {
    if (!outstanding[c].empty()) fail_connection(c, "no response before drain");
  }
  result.offered_qps = static_cast<double>(total) / schedule[total - 1];
  if (result.counts.ok > 0) {
    result.achieved_qps = static_cast<double>(result.counts.ok) /
                          SecondsBetween(start, last_response);
  }
  return result;
}

// ----------------------------------------------------------- closed loop --

ClosedLoopResult RunClosedLoop(
    std::vector<Connection>& connections,
    const std::function<bool(size_t, uint32_t*)>& next_seed,
    const std::string& query_suffix, double duration_s) {
  const size_t num_conns = connections.size();
  std::vector<RequestCounts> counts(num_conns);
  std::vector<Clock::time_point> finished(num_conns);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = At(start, duration_s);
  {
    std::vector<std::jthread> threads;
    threads.reserve(num_conns);
    for (size_t c = 0; c < num_conns; ++c) {
      threads.emplace_back([&, c] {
        Connection& conn = connections[c];
        std::string line;
        uint32_t seed = 0;
        while (Clock::now() < deadline && next_seed(c, &seed)) {
          ++counts[c].sent;
          if (!conn.SendLine(QueryLine(seed, query_suffix)) ||
              !conn.ReadLine(&line)) {
            counts[c].Record("connection failed or no response in time",
                             QueryResponse{});
            break;
          }
          QueryResponse response;
          counts[c].Record(CheckQueryResponse(line, seed, &response),
                           response);
        }
        finished[c] = Clock::now();
      });
    }
  }
  ClosedLoopResult result;
  Clock::time_point end = start;
  for (size_t c = 0; c < num_conns; ++c) {
    result.counts.Add(counts[c]);
    end = std::max(end, finished[c]);
  }
  const double elapsed_s = SecondsBetween(start, end);
  if (elapsed_s > 0.0) {
    result.qps = static_cast<double>(result.counts.ok) / elapsed_s;
  }
  return result;
}

}  // namespace perfbench
