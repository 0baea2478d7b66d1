#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {
// Innermost open span of the calling thread (the tracer is a process
// singleton in practice, so one slot per thread suffices).
thread_local int64_t t_open_span = -1;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}
}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Tracer

int64_t Tracer::Begin(const char* name, uint64_t request) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = now;
  rec.parent = t_open_span;
  rec.request = request;
  if (request == 0 && rec.parent >= 0) rec.request = spans_[rec.parent].request;
  spans_.push_back(rec);
  t_open_span = static_cast<int64_t>(spans_.size()) - 1;
  return t_open_span;
}

void Tracer::End(int64_t id) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
  t_open_span = spans_[id].parent;
}

void Tracer::Count(int64_t span, const char* name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.push_back({span, name, value});
}

int64_t Tracer::AncestorNamed(int64_t span, const std::string& name) const {
  for (int64_t s = span; s >= 0; s = spans_[s].parent) {
    if (name == spans_[s].name) return s;
  }
  return -1;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

std::vector<double> Tracer::SumUnder(const std::string& name,
                                     const std::string& ancestor) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int64_t, double> sums;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (ancestor == spans_[i].name) sums[static_cast<int64_t>(i)];
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    const int64_t a = AncestorNamed(spans_[i].parent, ancestor);
    if (a >= 0) sums[a] += (spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
  }
  std::vector<double> out;
  for (const auto& [id, v] : sums) out.push_back(v);
  return out;
}

std::vector<double> Tracer::CountUnder(const std::string& name,
                                       const std::string& ancestor) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int64_t, double> sums;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (ancestor == spans_[i].name) sums[static_cast<int64_t>(i)];
  }
  for (const CountRecord& c : counts_) {
    if (name != c.name) continue;
    const int64_t a = AncestorNamed(c.span, ancestor);
    if (a >= 0) sums[a] += c.value;
  }
  std::vector<double> out;
  for (const auto& [id, v] : sums) out.push_back(v);
  return out;
}

double Tracer::CountMax(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double max = 0.0;
  for (const CountRecord& c : counts_) {
    if (name == c.name) max = std::max(max, c.value);
  }
  return max;
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                  i, JsonEscape(s.name).c_str(),
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  for (const CountRecord& c : counts_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":\"%s\",\"span\":%lld,\"value\":%.17g}\n",
                  JsonEscape(c.name).c_str(), static_cast<long long>(c.span),
                  c.value);
    out << buf;
  }
  return static_cast<bool>(out.flush());
}

// ---------------------------------------------------------------------
// Statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

void LatencyLog::Add(const std::string& cell, double ms) {
  all_.push_back(ms);
  by_cell_[cell].push_back(ms);
}

void LatencyLog::Merge(const LatencyLog& other) {
  for (const auto& [cell, samples] : other.by_cell_) {
    for (double ms : samples) Add(cell, ms);
  }
}

double LatencyLog::CellGeoMean() const {
  std::vector<double> medians;
  for (const auto& [cell, samples] : by_cell_) medians.push_back(Median(samples));
  return GeoMean(medians);
}

void LatencyLog::Report() const {
  for (const auto& [cell, samples] : by_cell_) {
    std::fprintf(stderr, "  %-24s n=%-6zu p50=%.3f ms p90=%.3f ms\n",
                 cell.c_str(), samples.size(), Median(samples),
                 Quantile(samples, 0.9));
  }
}

// ---------------------------------------------------------------------
// Checker

void Checker::Expect(const std::string& what, uint64_t got, uint64_t want) {
  ++checks_;
  if (got == want) return;
  ++failures_;
  if (report_ && failures_ <= 20) {
    std::fprintf(stderr, "CHECK FAILED: %s: got %llu, want %llu\n",
                 what.c_str(), static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
  }
}

void Checker::ExpectTrue(const std::string& what, bool ok) {
  ++checks_;
  if (ok) return;
  ++failures_;
  if (report_ && failures_ <= 20) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

// ---------------------------------------------------------------------
// Result

void AddEndToEnd(const TimedPhase& phase, RunResult* result) {
  std::fprintf(stderr, "%zu samples over %.3f s; per cell:\n",
               phase.latency.size(), phase.timed_s);
  phase.latency.Report();
  result->Add("setup_s", phase.setup_s, "s");
  result->Add("queries_per_s",
              static_cast<double>(phase.answered) / phase.timed_s, "1/s");
  result->Add("latency_p50_ms", phase.latency.P50(), "ms");
  result->Add("latency_p90_ms", phase.latency.P90(), "ms");
  result->Add("cell_geomean_ms", phase.latency.CellGeoMean(), "ms");
  result->Add("peak_rss_mb", phase.peak_rss_mb, "MB");
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool PrintResult(const RunResult& result) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return false;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) line += ", ";
    first = false;
    line += "\"" + JsonEscape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench
