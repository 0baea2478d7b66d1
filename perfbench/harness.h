#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing of the benchmark driver: run options, the span tracer
// used by traced runs, sample statistics, the answer checker, and the
// one-line JSON result.
//
// Tracing lives entirely in the benchmark: spans wrap the driver's own
// calls into the library layers, never code inside src/. A disabled
// tracer records nothing; end-to-end numbers come from untraced runs.

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return SecondsBetween(t0, Clock::now());
}

// Faults the self-test injects into a workload's answers, so that it can
// show the run's own checks reject them. Runs from the command line
// never inject one.
enum class Fault {
  kNone,
  kCount,         // one engine or server answer is off by one
  kRoundSamples,  // minesweeper_resample: a round runs the next round's samples
  kServerCount,   // served_mix: the server answers a query the clients never logged
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  // the timed phase's length; --seconds sets it
  bool trace = false;
  std::string out_dir;  // scratch space for catalog files and span dumps
  Clock::time_point process_start;
  // A run ends after whole rounds, once `seconds` have passed and it
  // holds this many latency samples (so its p90 has >= 10 beyond it).
  // The self-test's one-round runs lower it.
  size_t min_samples = 100;
  Fault fault = Fault::kNone;
};

// Deterministic 64-bit mix (splitmix64) for deriving per-purpose seeds
// from the run's --seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

// ---------------------------------------------------------------------
// Spans

class Tracer {
 public:
  struct SpanRecord {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;   // index into spans(), -1 for a root
    uint64_t request = 0;  // shared by every span of one query/request
  };
  struct CountRecord {
    int64_t span = -1;
    const char* name = "";
    double value = 0.0;
  };

  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  // Opens a span as a child of this thread's innermost open span;
  // request 0 inherits the parent's request id. Returns the span id.
  int64_t Begin(const char* name, uint64_t request);
  void End(int64_t id);
  void Count(int64_t span, const char* name, double value);

  // Seconds of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  // For every span named `ancestor`, the summed seconds of its
  // descendants named `name` (zero when it has none), in span order.
  std::vector<double> SumUnder(const std::string& name,
                               const std::string& ancestor) const;
  // As SumUnder, over counts named `name` recorded on descendants (or
  // the ancestor itself).
  std::vector<double> CountUnder(const std::string& name,
                                 const std::string& ancestor) const;
  // Maximum of every count named `name`.
  double CountMax(const std::string& name) const;

  // Writes every span and count as JSON lines. False on I/O failure.
  bool Dump(const std::string& path) const;

 private:
  int64_t AncestorNamed(int64_t span, const std::string& name) const;

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::deque<SpanRecord> spans_;
  std::deque<CountRecord> counts_;
};

// RAII span; free when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(name, request) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_.End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Count(const char* name, double value) {
    if (id_ >= 0) tracer_.Count(id_, name, value);
  }

 private:
  Tracer& tracer_;
  const int64_t id_;
};

// ---------------------------------------------------------------------
// Statistics

// Linear-interpolation quantile (q in [0,1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double GeoMean(const std::vector<double>& v);
double Sum(const std::vector<double>& v);

// Latency samples grouped by cell (query x dataset x engine, or request
// kind), in milliseconds.
class LatencyLog {
 public:
  void Add(const std::string& cell, double ms);
  void Merge(const LatencyLog& other);
  size_t size() const { return all_.size(); }
  double P50() const { return Median(all_); }
  // The 90th percentile; RunOptions::min_samples keeps it meaningful.
  double P90() const { return Quantile(all_, 0.9); }
  // Geometric mean over cells of each cell's median.
  double CellGeoMean() const;
  // One line per cell (samples, median, p90) on stderr.
  void Report() const;

 private:
  std::vector<double> all_;
  std::map<std::string, std::vector<double>> by_cell_;
};

// ---------------------------------------------------------------------
// Answer checks

class Checker {
 public:
  // A quiet checker counts failures without printing them.
  explicit Checker(bool report = true) : report_(report) {}
  void Expect(const std::string& what, uint64_t got, uint64_t want);
  void ExpectTrue(const std::string& what, bool ok);
  bool ok() const { return failures_ == 0; }
  uint64_t checks() const { return checks_; }
  uint64_t failures() const { return failures_; }

 private:
  bool report_;
  uint64_t checks_ = 0;
  uint64_t failures_ = 0;
};

// ---------------------------------------------------------------------
// Result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// The end-to-end metrics every workload reports, from its untraced
// timed phase.
struct TimedPhase {
  double setup_s = 0.0;
  double timed_s = 0.0;
  // Process max RSS when the timed phase ends, before the answer checks
  // run the engines again.
  double peak_rss_mb = 0.0;
  uint64_t answered = 0;
  LatencyLog latency;
};
void AddEndToEnd(const TimedPhase& phase, RunResult* result);

// Process max RSS in MB (getrusage).
double PeakRssMb();

// Heap accounting for traced runs. The driver replaces the global
// operator new/delete; once enabled they keep the live heap bytes and
// their high-water mark, so a traced run can read how far the heap grew
// during one call into a layer. Disabled, they cost one relaxed load.
void EnableHeapAccounting();
// Restarts the high-water mark at the current live bytes; returns them.
int64_t ResetHeapPeak();
int64_t HeapPeakBytes();

// Prints the result as one JSON line on stdout. False if a metric value
// is not finite.
bool PrintResult(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
