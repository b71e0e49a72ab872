#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace servebench {

double SpanRecorder::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t SpanRecorder::Begin(std::string name, int64_t parent,
                            uint64_t request) {
  const double now = NowMs();
  return Add(std::move(name), now, now, parent, request);
}

void SpanRecorder::End(int64_t index) { spans_[index].end_ms = NowMs(); }

int64_t SpanRecorder::Add(std::string name, double start_ms, double end_ms,
                          int64_t parent, uint64_t request) {
  spans_.push_back({std::move(name), start_ms, end_ms, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::string SpanRecorder::ToJsonLines() const {
  std::string out;
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                  "\"end_ms\":%.6f,\"parent\":%lld,\"request\":%llu}\n",
                  i, s.name.c_str(), s.start_ms, s.end_ms,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
  }
  return out;
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      children[s.parent].emplace_back(s.start_ms, s.end_ms);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0;
    double reach = s.start_ms;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, s.end_ms);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = std::max(0.0, s.duration_ms() - covered);
  }
  return self;
}

}  // namespace servebench
