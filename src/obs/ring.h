// Fixed-capacity FIFO ring for the observers' bounded histories (flight
// recorder events and samples, the beacon lifecycle's eviction order).
//
// push_back() appends; once `capacity` elements are held it overwrites the
// oldest, so the ring always holds the newest min(pushes, capacity) values,
// oldest first.  Storage grows on demand up to the capacity: a ring that is
// never pushed to owns no memory, and a full ring never allocates again.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace sstsp::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] bool full() const { return buf_.size() == capacity_; }

  /// Appends a copy of `value`, evicting the oldest element when full.  The
  /// copy is assigned into the evicted slot, so a full ring of samples
  /// reuses their buffers.  A ring of capacity 0 keeps nothing.
  void push_back(const T& value) {
    if (capacity_ == 0) return;
    if (buf_.size() < capacity_) {
      if (buf_.size() == buf_.capacity()) {
        buf_.reserve(std::min(capacity_, std::max<std::size_t>(
                                             8, 2 * buf_.size())));
      }
      buf_.push_back(value);
      return;
    }
    buf_[head_] = value;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  }

  /// i-th oldest element (0 = front).
  [[nodiscard]] const T& operator[](std::size_t i) const {
    const std::size_t at = head_ + i;
    return buf_[at < buf_.size() ? at : at - buf_.size()];
  }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] const T& back() const { return (*this)[size() - 1]; }

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
  std::size_t capacity_;
  std::vector<T> buf_;
  std::size_t head_{0};  ///< index of the oldest element once full
};

}  // namespace sstsp::obs
