// FlatArray<T>: an immutable flat array that either owns its elements or
// borrows them from a shared backing blob.
//
// The IncidenceIndex keeps its big build-time structures (posting lists,
// interned keys, maintenance records) in arrays that are never mutated
// after construction. Storing them as FlatArrays gives two things at
// once:
//   * copies of the index (one per served request, which Adopts a copy
//     of its group's index; IndexedEngine::Clone) share one backing
//     allocation instead of deep-copying every posting list — only the
//     genuinely mutable count arrays stay per-copy; and
//   * a snapshot loaded from disk can ADOPT the mmap'd file bytes in
//     place (motif/index_snapshot.h): the array views the mapping and the
//     shared owner handle keeps the mapping alive for as long as any view
//     does. Zero copies, zero parsing — the file layout IS the in-memory
//     layout.
//
// T must be trivially copyable (the adopted form reinterprets raw bytes).
// The element sequence is immutable through this type by construction;
// mutable state never belongs in a FlatArray.

#ifndef TPP_COMMON_FLAT_ARRAY_H_
#define TPP_COMMON_FLAT_ARRAY_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace tpp {

template <typename T>
class FlatArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "FlatArray elements must be trivially copyable");

 public:
  FlatArray() = default;

  /// Takes ownership of `values` (moved into a shared backing, so copies
  /// of this FlatArray alias rather than duplicate it). Implicit: members
  /// are assigned straight from the build-time vectors.
  FlatArray(std::vector<T> values)  // NOLINT(runtime/explicit)
      : owner_(std::make_shared<std::vector<T>>(std::move(values))) {
    const auto& v = *std::static_pointer_cast<const std::vector<T>>(owner_);
    data_ = v.data();
    size_ = v.size();
  }

  /// Borrows `size` elements at `data`; `owner` keeps the backing memory
  /// (an mmap'd snapshot file) alive for the lifetime of every copy.
  static FlatArray Adopt(const T* data, size_t size,
                         std::shared_ptr<const void> owner) {
    FlatArray a;
    a.data_ = data;
    a.size_ = size;
    a.owner_ = std::move(owner);
    return a;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* data() const { return data_; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& back() const { return data_[size_ - 1]; }
  std::span<const T> span() const { return {data_, size_}; }

  /// Element-wise equality (backing identity is irrelevant: an adopted
  /// snapshot equals the owned build it was written from).
  friend bool operator==(const FlatArray& a, const FlatArray& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::shared_ptr<const void> owner_;
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace tpp

#endif  // TPP_COMMON_FLAT_ARRAY_H_
