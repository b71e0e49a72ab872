// Arithmetic of the serving benchmark: its seeded random streams (Zipf
// popularity, Poisson arrivals) and its percentile selection.
//
// Everything here is deterministic given a seed and uses no standard-library
// distribution, whose output is implementation-defined: the same seed yields
// the same request stream on every toolchain.

#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace servebench {

/// SplitMix64 stream: a 64-bit counter passed through the SplitMix64
/// finalizer.
class SeededStream {
 public:
  explicit SeededStream(uint64_t seed) : state_(seed) {}

  uint64_t Next();
  /// Uniform in [0, 1) with 53 bits of precision.
  double Uniform01();
  /// Uniform in [0, n); requires n > 0.
  size_t Index(size_t n);
  /// Uniform in [lo, hi] inclusive; requires lo <= hi.
  int64_t Int(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

/// Zipf popularity over ranks 0..n-1: P(rank k) is proportional to
/// 1 / (k + 1)^exponent. Sampling inverts the cumulative table.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);
  size_t Sample(SeededStream& stream) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Send offsets, in seconds from the start of a phase, of `n` requests
/// arriving as a Poisson process of `rate_per_s` (exponential gaps).
std::vector<double> PoissonSchedule(size_t n, double rate_per_s,
                                    SeededStream& stream);

/// Minimum number of samples a reported percentile must have strictly
/// above its rank.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile `q` (0 < q < 100) of `values`: the value at
/// rank ceil(q/100 * n) of the sorted sample. Returns nullopt when fewer
/// than `min_tail` samples lie beyond that rank, i.e. the sample is too
/// small to support the percentile.
std::optional<double> Percentile(std::vector<double> values, double q,
                                 size_t min_tail = kMinTailSamples);

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
