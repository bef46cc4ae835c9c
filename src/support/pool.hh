/**
 * @file
 * Allocation-free containers for the simulators' hot loops:
 *
 *  - SmallVec<T, N>: a vector with N elements of inline storage that
 *    spills to the heap only when it outgrows them, and that never
 *    returns capacity while alive (LoopModels-style reserve-and-reuse:
 *    clear() keeps the buffer, so a warmed-up loop stops allocating).
 *  - SlabPool<T>: an index-addressed object pool backed by fixed-size
 *    slabs with an intrusive free list. Handles are dense u32 ids that
 *    stay valid until freed; slabs are never returned, so steady-state
 *    alloc()/free() touches no allocator.
 *  - RingQueue<T, N>: a FIFO over a power-of-two ring buffer with N
 *    elements inline, growing (amortized, rarely) by doubling.
 *
 * All three require trivially-copyable-ish usage from the simulator
 * side (elements are moved with plain copies on growth), which every
 * packet/event/queue record here satisfies.
 */

#ifndef TRIPSIM_SUPPORT_POOL_HH
#define TRIPSIM_SUPPORT_POOL_HH

#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/common.hh"

namespace trips {

/**
 * Small-buffer vector. Supports the subset of std::vector the
 * simulators use; growth keeps the old elements (copied, so T must be
 * copyable) and clear()/pop_back() never release storage.
 */
template <typename T, unsigned N>
class SmallVec
{
    static_assert(N > 0, "inline capacity must be positive");

  public:
    SmallVec() = default;

    SmallVec(const SmallVec &o) { assignFrom(o); }

    SmallVec &
    operator=(const SmallVec &o)
    {
        if (this != &o) {
            clear();
            assignFrom(o);
        }
        return *this;
    }

    ~SmallVec()
    {
        clear();
        if (data_ != inlineData())
            releaseHeap(data_);
    }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }

    T &back() { return data_[size_ - 1]; }
    const T &back() const { return data_[size_ - 1]; }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return cap_; }

    void
    clear()
    {
        if constexpr (!std::is_trivially_destructible_v<T>) {
            for (size_t i = 0; i < size_; ++i)
                data_[i].~T();
        }
        size_ = 0;
    }

    void
    reserve(size_t want)
    {
        if (want > cap_)
            grow(want);
    }

    void
    push_back(const T &v)
    {
        if (size_ == cap_)
            grow(cap_ * 2);
        new (data_ + size_) T(v);
        ++size_;
    }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == cap_)
            grow(cap_ * 2);
        T *p = new (data_ + size_) T(std::forward<Args>(args)...);
        ++size_;
        return *p;
    }

    void
    pop_back()
    {
        --size_;
        if constexpr (!std::is_trivially_destructible_v<T>)
            data_[size_].~T();
    }

    /** Remove element i preserving the order of the rest (O(n-i)). */
    void
    eraseStable(size_t i)
    {
        for (size_t k = i + 1; k < size_; ++k)
            data_[k - 1] = data_[k];
        pop_back();
    }

    /** Insert v before position i preserving order (O(n-i)). */
    void
    insertAt(size_t i, const T &v)
    {
        push_back(v);  // grows if needed; value is a placeholder
        for (size_t k = size_ - 1; k > i; --k)
            data_[k] = data_[k - 1];
        data_[i] = v;
    }

    /**
     * Drop the first `keep..size()` elements' tail: shrink to `keep`
     * elements, destroying the rest.
     */
    void
    truncate(size_t keep)
    {
        while (size_ > keep)
            pop_back();
    }

  private:
    T *inlineData() { return std::launder(reinterpret_cast<T *>(store_)); }

    void
    assignFrom(const SmallVec &o)
    {
        reserve(o.size_);
        for (size_t i = 0; i < o.size_; ++i)
            new (data_ + i) T(o.data_[i]);
        size_ = o.size_;
    }

    /** Free a heap buffer with the matching aligned deallocation
     *  function (mixing aligned new[] with plain delete[] is UB). */
    static void
    releaseHeap(T *p)
    {
        ::operator delete[](p, std::align_val_t{alignof(T)});
    }

    // Out of line so that push_back stays small enough to inline: the
    // element is then stored straight from the caller's registers
    // instead of being built on the stack and copied.
    [[gnu::noinline]] void
    grow(size_t want)
    {
        size_t cap = cap_;
        while (cap < want)
            cap *= 2;
        T *heap = static_cast<T *>(
            ::operator new[](cap * sizeof(T), std::align_val_t{alignof(T)}));
        for (size_t i = 0; i < size_; ++i) {
            new (heap + i) T(data_[i]);
            if constexpr (!std::is_trivially_destructible_v<T>)
                data_[i].~T();
        }
        if (data_ != inlineData())
            releaseHeap(data_);
        data_ = heap;
        cap_ = static_cast<u32>(cap);
    }

    // Metadata ahead of the inline buffer, as in RingQueue: a push to
    // a short vector touches one cache line, not two.
    T *data_ = reinterpret_cast<T *>(store_);
    u32 size_ = 0;
    u32 cap_ = N;
    alignas(T) unsigned char store_[N * sizeof(T)];
};

/**
 * Slab-backed object pool addressed by dense u32 handles. Objects are
 * value-initialized on alloc(); slabs (SLAB objects each) are created
 * on demand and kept forever, so a warmed-up pool never allocates.
 */
template <typename T, unsigned SLAB = 256>
class SlabPool
{
    static_assert((SLAB & (SLAB - 1)) == 0, "slab size: power of two");

  public:
    using Id = u32;

    SlabPool() = default;
    SlabPool(const SlabPool &) = delete;
    SlabPool &operator=(const SlabPool &) = delete;

    ~SlabPool()
    {
        for (Slot *s : slabs)
            delete[] s;
    }

    Id
    alloc()
    {
        if (freeHead == NO_FREE)
            addSlab();
        Id id = freeHead;
        Slot &s = slot(id);
        freeHead = s.nextFree;
        s.obj = T{};
        ++liveCount;
        return id;
    }

    void
    free(Id id)
    {
        Slot &s = slot(id);
        s.nextFree = freeHead;
        freeHead = id;
        --liveCount;
    }

    T &operator[](Id id) { return slot(id).obj; }
    const T &operator[](Id id) const { return slot(id).obj; }

    u64 live() const { return liveCount; }
    size_t capacity() const { return slabs.size() * SLAB; }

  private:
    static constexpr Id NO_FREE = ~Id{0};

    /** Out of line (see SmallVec::grow): keeps alloc() inlinable. */
    [[gnu::noinline]] void
    addSlab()
    {
        Id base = static_cast<Id>(slabs.size() * SLAB);
        slabs.push_back(new Slot[SLAB]);
        // Thread the fresh slab onto the free list back-to-front so ids
        // are handed out in ascending order.
        for (unsigned i = SLAB; i-- > 0;) {
            slabs.back()[i].nextFree = freeHead;
            freeHead = base + i;
        }
    }

    struct Slot
    {
        T obj{};
        Id nextFree = NO_FREE;
    };

    Slot &slot(Id id) { return slabs[id / SLAB][id % SLAB]; }
    const Slot &slot(Id id) const { return slabs[id / SLAB][id % SLAB]; }

    std::vector<Slot *> slabs;
    Id freeHead = NO_FREE;
    u64 liveCount = 0;
};

/**
 * FIFO ring queue with inline storage for N elements (N a power of
 * two). Grows by doubling; never shrinks. Supports indexed access
 * front-to-back (0 = oldest) for the frame-queue walks.
 */
template <typename T, unsigned N>
class RingQueue
{
    static_assert((N & (N - 1)) == 0, "ring capacity: power of two");
    static_assert(std::is_trivially_copyable_v<T>,
                  "ring elements are relocated with memcpy");

  public:
    RingQueue() = default;

    RingQueue(const RingQueue &o) { *this = o; }

    RingQueue &
    operator=(const RingQueue &o)
    {
        if (this != &o) {
            clear();
            for (size_t i = 0; i < o.size(); ++i)
                push_back(o[i]);
        }
        return *this;
    }

    ~RingQueue()
    {
        if (data_ != inlineData())
            delete[] data_;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](size_t i) { return data_[(head_ + i) & mask_]; }
    const T &operator[](size_t i) const
    {
        return data_[(head_ + i) & mask_];
    }

    T &front() { return data_[head_]; }
    const T &front() const { return data_[head_]; }

    void
    push_back(const T &v)
    {
        if (size_ == mask_ + 1)
            grow();
        data_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Keep the oldest `keep` elements, drop the rest. */
    void truncate(size_t keep) { size_ = keep; }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    T *inlineData() { return store_; }

    void
    grow()
    {
        size_t cap = (mask_ + 1) * 2;
        T *heap = new T[cap];
        for (size_t i = 0; i < size_; ++i)
            heap[i] = (*this)[i];
        if (data_ != inlineData())
            delete[] data_;
        data_ = heap;
        head_ = 0;
        mask_ = cap - 1;
    }

    // Metadata ahead of the buffer: empty()/size() probes touch only
    // the queue's first cache line.
    T *data_ = store_;
    size_t head_ = 0;
    size_t size_ = 0;
    size_t mask_ = N - 1;
    T store_[N];
};

} // namespace trips

#endif // TRIPSIM_SUPPORT_POOL_HH
