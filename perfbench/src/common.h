// Shared helpers of the avqdb benchmark: clocks, sample statistics, the
// in-memory span recorder, process memory, and the result sink.
#ifndef AVQDB_PERFBENCH_COMMON_H_
#define AVQDB_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline uint64_t NanosSince(Clock::time_point origin, Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
          .count());
}

// Rank-interpolated quantile (q in [0, 1]) of raw samples; the samples
// are sorted in place. Registry histograms are power-of-two bucketed, so
// every latency the benchmark reports comes from its own samples.
inline double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double pos = q * static_cast<double>(samples->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*samples)[lo] * (1.0 - frac) + (*samples)[hi] * frac;
}

inline double Median(std::vector<double> samples) {
  return Quantile(&samples, 0.5);
}

// Resets the process's peak resident set size (VmHWM) to its current
// resident size; false when the kernel does not allow it.
inline bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

// Peak resident set size of this process (VmHWM), in MiB.
inline double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

// One traced interval. Spans of one request share `request_id`; `parent`
// indexes the enclosing span in the same recorder (-1 for a root).
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;
  uint64_t request_id;
};

// Per-thread span recorder: spans stay in memory until the run ends and
// are merged afterwards, so recording is a clock read and a push_back.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 14);
  }

  // Opens a span under the innermost open one.
  void Begin(const char* name, uint64_t request_id) {
    const int64_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(
        Span{name, NanosSince(origin_, Clock::now()), 0, parent, request_id});
    open_.push_back(static_cast<int64_t>(spans_.size() - 1));
  }
  void End() {
    spans_[static_cast<size_t>(open_.back())].end_ns =
        NanosSince(origin_, Clock::now());
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// RAII span; a null recorder records nothing (the untraced run).
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name, uint64_t request_id)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(name, request_id);
  }
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->End();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
};

// Total and self time (duration minus the part its children cover) per
// span name, in microseconds, plus how many spans carried the name.
struct SpanTotals {
  double total_us = 0;
  double self_us = 0;
  uint64_t count = 0;
};

inline std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  // Children of one parent never overlap (one recorder = one thread), so
  // the covered part of a span is the sum of its children's durations.
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    SpanTotals& t = out[spans[i].name];
    t.total_us += dur / 1e3;
    t.self_us += (dur - child_ns[i]) / 1e3;
    ++t.count;
  }
  return out;
}

// Named metric values with units, in insertion order.
class MetricSink {
 public:
  void Put(const std::string& name, double value, const std::string& unit) {
    entries_.push_back(Entry{name, value, unit});
  }
  std::string ToJson() const {
    std::string out = "{";
    char buf[512];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value
                                                       : 0.0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    entries_[i].name.c_str(), v, entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Correctness ledger shared by all client threads.
class Verdicts {
 public:
  void Attempt(uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  // A request that did not complete (transport error, shed, server error).
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    Note(why);
  }
  // A completed request whose answer disagrees with the oracle.
  void Wrong(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++wrong_;
    Note(why);
  }
  uint64_t attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }
  uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }
  uint64_t wrong() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wrong_;
  }

 private:
  void Note(const std::string& why) {
    if (notes_ < 10) std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    ++notes_;
  }
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
  uint64_t notes_ = 0;
};

}  // namespace perfbench

#endif  // AVQDB_PERFBENCH_COMMON_H_
