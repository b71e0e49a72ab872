// RoundArgmax: the first-max selector of the incremental greedy rounds.
//
// A greedy round picks the universe row with the largest key, ties going
// to the smallest row index — the cold sweep's "first strict max in
// ascending edge-key order". Between two rounds only the committed
// deletion's dirty rows change, so rescanning the whole universe every
// round is almost all wasted work on long runs (`full` commits hundreds
// of picks over thousands of rows while ~10 rows change per pick).
//
// The selector keeps one uint64_t key per row and an upper bound on the
// key maximum of each fixed kBlock-row block:
//
//   - a clean block's bound IS its maximum;
//   - a stale block's bound may exceed its maximum (a lowered key that
//     held the maximum); Best() rescans exactly the stale blocks, in the
//     same O(n / kBlock) pass that compares the bounds.
//
// Set() raising a key above its block's bound just raises the bound, and
// lowering a key below the bound leaves the block clean; only lowering
// the key that held the bound marks the block stale. Best() then takes
// the first block whose (exact) maximum is strictly largest and the
// first row in it holding that maximum, which is the smallest row index
// among all rows holding the global maximum. Rebuild() is one O(n) pass,
// what one flat scan costs.

#ifndef TPP_CORE_ROUND_ARGMAX_H_
#define TPP_CORE_ROUND_ARGMAX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace tpp::core {

class RoundArgmax {
 public:
  /// Rows per block.
  static constexpr size_t kBlock = 64;
  /// Best()'s answer when every key is 0.
  static constexpr size_t kNone = std::numeric_limits<size_t>::max();

  /// Rebuilds the whole selector over `n` rows, row i keyed key_of(i): one
  /// O(n) pass that leaves every block clean.
  template <typename KeyOf>
  void Rebuild(size_t n, KeyOf key_of) {
    keys_.resize(n);
    const size_t blocks = (n + kBlock - 1) / kBlock;
    bound_.resize(blocks);
    stale_.assign(blocks, 0);
    for (size_t b = 0; b < blocks; ++b) {
      const size_t end = std::min((b + 1) * kBlock, n);
      uint64_t m = 0;
      for (size_t i = b * kBlock; i < end; ++i) {
        keys_[i] = key_of(i);
        m = std::max(m, keys_[i]);
      }
      bound_[b] = m;
    }
  }

  size_t size() const { return keys_.size(); }

  /// Sets row `i`'s key.
  void Set(size_t i, uint64_t key) {
    const uint64_t old = keys_[i];
    if (key == old) return;
    keys_[i] = key;
    const size_t b = i / kBlock;
    if (key > bound_[b]) {
      bound_[b] = key;
    } else if (old == bound_[b]) {
      stale_[b] = 1;
    }
  }

  /// The smallest row index holding the largest key, or kNone when every
  /// key is 0 (a zero key is never a pick).
  size_t Best() {
    uint64_t best = 0;
    size_t best_b = 0;
    for (size_t b = 0; b < bound_.size(); ++b) {
      if (stale_[b]) {
        const size_t end = std::min((b + 1) * kBlock, keys_.size());
        uint64_t m = 0;
        for (size_t i = b * kBlock; i < end; ++i) m = std::max(m, keys_[i]);
        bound_[b] = m;
        stale_[b] = 0;
      }
      if (bound_[b] > best) {  // strict: the first block wins ties
        best = bound_[b];
        best_b = b;
      }
    }
    if (best == 0) return kNone;
    size_t i = best_b * kBlock;
    while (keys_[i] != best) ++i;
    return i;
  }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> bound_;  // per-block key maximum (upper bound)
  std::vector<uint8_t> stale_;   // bound_ may exceed the block maximum
};

}  // namespace tpp::core

#endif  // TPP_CORE_ROUND_ARGMAX_H_
