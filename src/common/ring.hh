/**
 * @file
 * BoundedRing: the one retention policy for every record stream the
 * program keeps in memory — trace spans, access-log records, sampled
 * profiler tokens, SLO verdicts and events, and the report digests'
 * recent lines.
 *
 * The ring keeps the newest `capacity` items, counts every item it
 * evicts to make room, and hands items out oldest first. Storage
 * grows with the items actually pushed, so a large capacity costs
 * nothing until it is used.
 *
 * Not thread-safe: an owner that shares its ring across threads
 * locks it itself (the tracer does).
 */

#ifndef TOMUR_COMMON_RING_HH
#define TOMUR_COMMON_RING_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tomur {

template <class T>
class BoundedRing
{
  public:
    /** A capacity of 0 is taken as 1. */
    explicit BoundedRing(std::size_t capacity)
        : capacity_(std::max<std::size_t>(capacity, 1))
    {
    }

    /** Append `item`; a full ring first evicts its oldest item.
     *  Returns true when it evicted one. */
    bool
    push(T item)
    {
        if (items_.size() < capacity_) {
            items_.push_back(std::move(item));
            return false;
        }
        items_[head_] = std::move(item);
        if (++head_ == capacity_)
            head_ = 0;
        ++evicted_;
        return true;
    }

    std::size_t size() const { return items_.size(); }
    std::size_t capacity() const { return capacity_; }
    /** Items evicted since construction or the last clear(). */
    std::uint64_t evicted() const { return evicted_; }

    /** The i-th oldest retained item; i < size(). */
    const T &
    operator[](std::size_t i) const
    {
        std::size_t slot = head_ + i;
        return items_[slot < items_.size() ? slot : slot - items_.size()];
    }

    /** Retained items, oldest first. */
    std::vector<T>
    snapshot() const
    {
        std::vector<T> out;
        out.reserve(items_.size());
        out.insert(out.end(), items_.begin() + head_, items_.end());
        out.insert(out.end(), items_.begin(), items_.begin() + head_);
        return out;
    }

    /** Drop every item and zero the eviction count. */
    void
    clear()
    {
        items_.clear();
        head_ = 0;
        evicted_ = 0;
    }

  private:
    std::size_t capacity_;
    std::vector<T> items_;
    std::size_t head_ = 0; ///< the oldest item's slot once full
    std::uint64_t evicted_ = 0;
};

} // namespace tomur

#endif // TOMUR_COMMON_RING_HH
