// Fixed-capacity FIFO ring for bounded histories (flight recorder events and
// samples, the beacon lifecycle's eviction order, a clock discipline's
// per-sender sample window).
//
// push_back() appends; once `capacity` elements are held it overwrites the
// oldest, so without pop_front() the ring holds the newest
// min(pushes, capacity) values, oldest first.  pop_front() drops the oldest
// in O(1).  Storage grows on demand up to the capacity: a ring that is never
// pushed to owns no memory, and a ring whose storage has reached the
// capacity never allocates again.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace sstsp::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity = 0) : capacity_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool full() const { return size_ == capacity_; }

  /// Appends a copy of `value`, evicting the oldest element when full.  The
  /// copy is assigned into a reused slot, so a full ring of samples reuses
  /// their buffers.  A ring of capacity 0 keeps nothing.
  void push_back(const T& value) {
    if (capacity_ == 0) return;
    if (size_ == capacity_) {
      buf_[head_] = value;
      head_ = wrap(head_ + 1);
      return;
    }
    if (size_ < buf_.size()) {
      buf_[wrap(head_ + size_)] = value;  // a slot pop_front() freed
    } else {
      // Storage is exhausted: unwrap the live elements so the new slot is
      // appended after the newest, then grow.
      std::rotate(buf_.begin(),
                  buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                  buf_.end());
      head_ = 0;
      if (buf_.size() == buf_.capacity()) {
        buf_.reserve(std::min(capacity_, std::max<std::size_t>(
                                             8, 2 * buf_.size())));
      }
      buf_.push_back(value);
    }
    ++size_;
  }

  /// Drops the oldest element; requires size() > 0.
  void pop_front() {
    assert(size_ > 0);
    head_ = --size_ == 0 ? 0 : wrap(head_ + 1);
  }

  /// Drops every element; storage is kept for reuse.
  void clear() {
    size_ = 0;
    head_ = 0;
  }

  /// i-th oldest element (0 = front).
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[wrap(head_ + i)];
  }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  /// Oldest-to-newest iteration (range-for).
  class const_iterator {
   public:
    const_iterator(const Ring* ring, std::size_t i) : ring_(ring), i_(i) {}
    const T& operator*() const { return (*ring_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const Ring* ring_;
    std::size_t i_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

 private:
  /// Storage index of logical position `at` < 2 * buf_.size().
  [[nodiscard]] std::size_t wrap(std::size_t at) const {
    return at < buf_.size() ? at : at - buf_.size();
  }

  std::size_t capacity_;
  std::vector<T> buf_;
  std::size_t head_{0};  ///< storage index of the oldest element
  std::size_t size_{0};  ///< live elements, <= buf_.size()
};

}  // namespace sstsp::obs
