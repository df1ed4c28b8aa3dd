#ifndef TANE_LATTICE_ATTRIBUTE_SET_H_
#define TANE_LATTICE_ATTRIBUTE_SET_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "relation/schema.h"

namespace tane {

/// A set of attribute indices in [0, kMaxAttributes), stored as a 64-bit
/// mask. This is the value type for every left-hand side, right-hand-side
/// candidate set, and lattice node in the search — following the paper's
/// remark that attribute sets are "bit vectors of O(1) words" so that set
/// operations take constant time.
class AttributeSet {
 public:
  /// The empty set.
  constexpr AttributeSet() = default;

  /// The singleton {attribute}.
  static constexpr AttributeSet Singleton(int attribute) {
    return AttributeSet(uint64_t{1} << attribute);
  }

  /// The full set {0, 1, ..., n-1}.
  static constexpr AttributeSet FullSet(int n) {
    return AttributeSet(n >= 64 ? ~uint64_t{0}
                                : (uint64_t{1} << n) - 1);
  }

  /// Builds a set from explicit indices.
  static AttributeSet Of(std::initializer_list<int> attributes) {
    AttributeSet set;
    for (int a : attributes) set = set.With(a);
    return set;
  }

  static constexpr AttributeSet FromMask(uint64_t mask) {
    return AttributeSet(mask);
  }

  constexpr uint64_t mask() const { return mask_; }
  constexpr bool empty() const { return mask_ == 0; }
  int size() const { return std::popcount(mask_); }
  /// Number of members below `attribute`: its index among the members in
  /// ascending order when it is one.
  int Rank(int attribute) const {
    return std::popcount(mask_ & ((uint64_t{1} << attribute) - 1));
  }

  constexpr bool Contains(int attribute) const {
    return (mask_ >> attribute) & 1;
  }
  constexpr bool ContainsAll(AttributeSet other) const {
    return (mask_ & other.mask_) == other.mask_;
  }
  /// True if this is a proper subset of `other`.
  constexpr bool IsProperSubsetOf(AttributeSet other) const {
    return mask_ != other.mask_ && (mask_ & ~other.mask_) == 0;
  }

  constexpr AttributeSet With(int attribute) const {
    return AttributeSet(mask_ | (uint64_t{1} << attribute));
  }
  constexpr AttributeSet Without(int attribute) const {
    return AttributeSet(mask_ & ~(uint64_t{1} << attribute));
  }

  constexpr AttributeSet Union(AttributeSet other) const {
    return AttributeSet(mask_ | other.mask_);
  }
  constexpr AttributeSet Intersect(AttributeSet other) const {
    return AttributeSet(mask_ & other.mask_);
  }
  constexpr AttributeSet Difference(AttributeSet other) const {
    return AttributeSet(mask_ & ~other.mask_);
  }

  /// The smallest attribute index in the set; undefined when empty.
  int First() const { return std::countr_zero(mask_); }

  /// Member indices in ascending order.
  std::vector<int> ToIndices() const {
    std::vector<int> indices;
    indices.reserve(size());
    for (uint64_t m = mask_; m != 0; m &= m - 1) {
      indices.push_back(std::countr_zero(m));
    }
    return indices;
  }

  /// Renders as "{A,C,D}" using `schema` names, or "{}" for the empty set.
  std::string ToString(const Schema& schema) const;

  /// Renders as "{0,2,3}" with raw indices.
  std::string ToString() const;

  friend constexpr bool operator==(AttributeSet a, AttributeSet b) {
    return a.mask_ == b.mask_;
  }
  /// Orders by mask value; used only for canonical sorting of outputs.
  friend constexpr bool operator<(AttributeSet a, AttributeSet b) {
    return a.mask_ < b.mask_;
  }

 private:
  explicit constexpr AttributeSet(uint64_t mask) : mask_(mask) {}

  uint64_t mask_ = 0;
};

/// Iterates `for (int a : Members(set))` over member indices ascending.
class Members {
 public:
  explicit Members(AttributeSet set) : mask_(set.mask()) {}

  class Iterator {
   public:
    explicit Iterator(uint64_t mask) : mask_(mask) {}
    int operator*() const { return std::countr_zero(mask_); }
    Iterator& operator++() {
      mask_ &= mask_ - 1;
      return *this;
    }
    friend bool operator!=(Iterator a, Iterator b) {
      return a.mask_ != b.mask_;
    }

   private:
    uint64_t mask_;
  };

  Iterator begin() const { return Iterator(mask_); }
  Iterator end() const { return Iterator(0); }

 private:
  uint64_t mask_;
};

struct AttributeSetHash {
  size_t operator()(AttributeSet set) const {
    // splitmix64-style finalizer; masks are often dense in the low bits.
    uint64_t x = set.mask();
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

}  // namespace tane

#endif  // TANE_LATTICE_ATTRIBUTE_SET_H_
