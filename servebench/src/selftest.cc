// Tests of the benchmark's own arithmetic: seeded streams, percentile
// selection and span self time. Exits non-zero on the first failed check.
//
//   .bench_build/servebench_selftest

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace servebench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                 \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                           \
      ++failures;                                                    \
    }                                                                \
  } while (0)

void StreamsRepeatForAFixedSeed() {
  // SplitMix64 reference output for seed 0.
  EXPECT(SeededStream(0).Next() == 0xe220a8397b1dcdafULL);

  const ZipfSampler zipf(300, 1.0);
  SeededStream a(42), b(42), c(43);
  std::vector<size_t> draws_a, draws_b, draws_c;
  for (int i = 0; i < 1000; ++i) {
    draws_a.push_back(zipf.Sample(a));
    draws_b.push_back(zipf.Sample(b));
    draws_c.push_back(zipf.Sample(c));
  }
  EXPECT(draws_a == draws_b);
  EXPECT(draws_a != draws_c);
  // Skew: rank 0 is drawn far more often than rank 299.
  size_t head = 0, tail = 0;
  for (size_t d : draws_a) {
    EXPECT(d < 300);
    head += d == 0;
    tail += d == 299;
  }
  EXPECT(head > 50 && tail < 10);

  SeededStream p(7), q(7);
  const std::vector<double> s1 = PoissonSchedule(2000, 100.0, p);
  const std::vector<double> s2 = PoissonSchedule(2000, 100.0, q);
  EXPECT(s1 == s2);
  for (size_t i = 1; i < s1.size(); ++i) EXPECT(s1[i] > s1[i - 1]);
  // 2000 arrivals at 100/s span about 20 s.
  EXPECT(s1.back() > 18 && s1.back() < 22);
}

void PercentileNeedsTenSamplesBeyond() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // Rank ceil(0.99 * 1000) = 990 leaves exactly 10 samples beyond it.
  EXPECT(Percentile(v, 99).value_or(-1) == 990);
  v.pop_back();  // 999 samples: rank 990 leaves 9 beyond.
  EXPECT(!Percentile(v, 99).has_value());

  std::vector<double> small = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15};
  EXPECT(!Percentile(small, 50).has_value());  // rank 8, 7 beyond
  for (double x = 16; x <= 20; ++x) small.push_back(x);
  EXPECT(Percentile(small, 50).value_or(-1) == 10);  // rank 10, 10 beyond
  EXPECT(!Percentile({}, 50).has_value());

  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
}

void SelfTimeHandlesNestedAndAdjacentChildren() {
  SpanRecorder rec;
  const int64_t root = rec.Add("root", 0, 10, kNoParent, 1);
  const int64_t a = rec.Add("a", 1, 3, root, 1);
  rec.Add("b", 3, 6, root, 1);          // adjacent to a
  rec.Add("a.inner", 1.5, 2.5, a, 1);  // nested inside a
  const std::vector<double> self = SelfTimesMs(rec.spans());
  EXPECT(self[0] == 5);  // 10 - (2 + 3); the grandchild is a's, not root's
  EXPECT(self[1] == 1);  // 2 - 1
  EXPECT(self[2] == 3);
  EXPECT(self[3] == 1);

  SpanRecorder overlap;
  const int64_t p = overlap.Add("p", 0, 10, kNoParent, 2);
  overlap.Add("x", 2, 5, p, 2);
  overlap.Add("y", 4, 8, p, 2);   // overlaps x: the union is 6
  overlap.Add("z", 9, 12, p, 2);  // runs past p: clipped to 1
  EXPECT(SelfTimesMs(overlap.spans())[0] == 3);
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::StreamsRepeatForAFixedSeed();
  servebench::PercentileNeedsTenSamplesBeyond();
  servebench::SelfTimeHandlesNestedAndAdjacentChildren();
  if (servebench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", servebench::failures);
    return EXIT_FAILURE;
  }
  std::printf("servebench selftest: all checks passed\n");
  return EXIT_SUCCESS;
}
