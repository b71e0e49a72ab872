#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace servebench {

uint64_t SeededStream::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeededStream::Uniform01() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

size_t SeededStream::Index(size_t n) {
  // Multiply-shift range reduction; the bias for n << 2^64 is negligible
  // and, unlike rejection sampling, the draw count per call is fixed.
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

int64_t SeededStream::Int(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Index(static_cast<size_t>(hi - lo) + 1));
}

ZipfSampler::ZipfSampler(size_t n, double exponent) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(SeededStream& stream) const {
  const double u = stream.Uniform01();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

std::vector<double> PoissonSchedule(size_t n, double rate_per_s,
                                    SeededStream& stream) {
  std::vector<double> at(n);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log1p(-stream.Uniform01()) / rate_per_s;
    at[i] = t;
  }
  return at;
}

std::optional<double> Percentile(std::vector<double> values, double q,
                                 size_t min_tail) {
  const size_t n = values.size();
  if (n == 0 || q <= 0 || q >= 100) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_tail) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace servebench
