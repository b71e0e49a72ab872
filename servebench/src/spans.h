// In-memory spans of the traced run. Each span records its name, start,
// end, parent span and request id; spans stay in memory until the run ends
// and are then written out as JSON lines.

#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

inline constexpr int64_t kNoParent = -1;

struct Span {
  std::string name;
  double start_ms = 0;  ///< milliseconds since the recorder's origin
  double end_ms = 0;
  int64_t parent = kNoParent;  ///< index of the parent span
  uint64_t request = 0;
  double duration_ms() const { return end_ms - start_ms; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  double NowMs() const;

  /// Opens a span starting now; returns its index.
  int64_t Begin(std::string name, int64_t parent, uint64_t request);
  /// Closes span `index` now.
  void End(int64_t index);
  /// Records a span with explicit bounds; returns its index.
  int64_t Add(std::string name, double start_ms, double end_ms,
              int64_t parent, uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line.
  std::string ToJsonLines() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may nest further, touch end to
/// start, or overlap one another; overlapping children are counted once.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
