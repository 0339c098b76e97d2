// Bounded lock-free rings for the serving layer (DESIGN.md §9).
//
// Two shapes, one discipline: fixed power-of-two capacity, monotonically
// increasing 64-bit positions masked into slot indices (wraparound never
// resets a position, so full/empty tests are plain subtractions), and
// cache-line-aligned producer/consumer state so the two sides never false-
// share. Both rings are *rejecting*: `try_push` returns false when full and
// the caller decides (backpressure at ingress, bounded retry at egress) —
// the rings themselves never block, allocate, or drop.
//
//  * SpscRing — single producer, single consumer (the per-client completion
//    path). Wait-free on both sides; each side caches the opposing index and
//    refreshes it only on apparent-full/apparent-empty, so steady-state
//    operations touch one shared cache line instead of two.
//  * MpscRing — multiple producers, single consumer (the per-shard ingress
//    path). A Vyukov-style bounded queue: producers claim positions with a
//    CAS on the tail, per-slot sequence numbers publish the payload, and the
//    single consumer pops without any atomic RMW.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace dart::serve {

/// Largest ring capacity the serving layer accepts (2^16 slots).
inline constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 16;

/// Rounds `n` up to the next power of two (minimum 2), so ring capacities
/// can mask positions instead of dividing. Throws std::invalid_argument
/// when `n` exceeds kMaxRingCapacity, before any doubling could wrap.
inline std::size_t ceil_pow2(std::size_t n) {
  if (n > kMaxRingCapacity) {
    throw std::invalid_argument("ring capacity exceeds kMaxRingCapacity");
  }
  std::size_t cap = 2;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Bounded wait-free single-producer / single-consumer ring.
///
/// `T` must be default-constructible and copyable (the serving layer moves
/// small POD request/response records). Exactly one thread may call
/// `try_push` and exactly one thread may call `try_pop`; the payload write
/// is published by the release store of the producer position and consumed
/// under the matching acquire load.
template <typename T>
class SpscRing {
 public:
  /// Ring holding at least `capacity` elements (rounded up to a power of
  /// two, minimum 2; at most kMaxRingCapacity, see ceil_pow2). `start_pos`
  /// is the initial head/tail position — production rings start at 0;
  /// tests start near the uint64 wrap points to prove position arithmetic
  /// survives index-type overflow.
  explicit SpscRing(std::size_t capacity, std::uint64_t start_pos = 0)
      : capacity_(ceil_pow2(capacity)),
        mask_(capacity_ - 1),
        slots_(new T[capacity_]),
        tail_(start_pos),
        head_cache_(start_pos),
        head_(start_pos),
        tail_cache_(start_pos) {}

  /// Producer side: enqueues `v`; false when the ring is full.
  bool try_push(const T& v) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;
    }
    slots_[tail & mask_] = v;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: dequeues into `out`; false when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Element count as last published (racy by design; monitoring only).
  /// The subtraction is wrap-safe: positions are modular uint64, so the
  /// difference is exact even when the tail has wrapped past 2^64.
  std::size_t size_approx() const {
    return static_cast<std::size_t>(tail_.load(std::memory_order_relaxed) -
                                    head_.load(std::memory_order_relaxed));
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<T[]> slots_;
  // Producer-owned line: tail position plus its stale view of the head.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  // Consumer-owned line: head position plus its stale view of the tail.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
};

/// Bounded lock-free multi-producer / single-consumer ring (Vyukov bounded
/// queue, consumer side simplified for a single popper).
///
/// Each slot carries a sequence number: `seq == pos` means free for the
/// producer claiming position `pos`; `seq == pos + 1` means the payload at
/// `pos` is published for the consumer; after popping, the consumer
/// re-arms the slot with `seq = pos + capacity` for its next lap. Producers
/// contend only on the tail CAS; the consumer performs no atomic RMW at all.
template <typename T>
class MpscRing {
 public:
  /// Ring holding at least `capacity` elements (rounded up to a power of
  /// two, minimum 2; at most kMaxRingCapacity, see ceil_pow2). `start_pos`
  /// is the initial head/tail position — production rings start at 0;
  /// tests start near 2^63 / 2^64 to prove the sequence arithmetic
  /// survives index-type overflow. Each slot is armed with the first
  /// position at or past `start_pos` that maps to it.
  explicit MpscRing(std::size_t capacity, std::uint64_t start_pos = 0)
      : capacity_(ceil_pow2(capacity)),
        mask_(capacity_ - 1),
        cells_(new Cell[capacity_]),
        tail_(start_pos),
        head_(start_pos) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      // base + i cannot wrap here (base <= 2^64 - capacity, i < capacity);
      // the += capacity for slots behind start_pos may wrap, which is
      // exactly the modular position the producer will claim them with.
      std::uint64_t pos = (start_pos & ~static_cast<std::uint64_t>(mask_)) + i;
      if (pos < start_pos) pos += capacity_;
      cells_[i].seq.store(pos, std::memory_order_relaxed);
    }
  }

  /// Any producer thread: enqueues `v`; false when the ring is full.
  bool try_push(const T& v) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      // Subtract in uint64 (wraps mod 2^64) and reinterpret as signed:
      // |seq - pos| < 2 * capacity, so the sign survives wraparound.
      // Casting each operand separately would overflow at positions
      // crossing 2^63.
      const std::int64_t diff = static_cast<std::int64_t>(seq - pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          cell.value = v;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS refreshed `pos`; retry with the new tail.
      } else if (diff < 0) {
        // The slot still holds an unconsumed lap-old element: ring is full.
        return false;
      } else {
        // Another producer claimed `pos`; chase the tail.
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// The single consumer thread: dequeues into `out`; false when empty.
  bool try_pop(T& out) {
    const std::uint64_t pos = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    // Wrap-safe signed comparison (see try_push).
    if (static_cast<std::int64_t>(seq - (pos + 1)) < 0) {
      return false;  // producer has not published this position yet
    }
    out = cell.value;
    cell.seq.store(pos + capacity_, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Element count as last published (racy by design; used for the shard
  /// queue-depth counters). Computed with wrap-safe modular subtraction —
  /// comparing raw positions would report 0 whenever the tail wraps past
  /// 2^64 ahead of the head. Any difference beyond the capacity is a
  /// transient racy view and is clamped to 0.
  std::size_t size_approx() const {
    const std::uint64_t depth = tail_.load(std::memory_order_relaxed) -
                                head_.load(std::memory_order_relaxed);
    return depth <= capacity_ ? static_cast<std::size_t>(depth) : 0;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq;
    T value;
  };

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producers (CAS)
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer only
};

}  // namespace dart::serve
