// The gateway's stream table: per-stream state for N concurrent streams,
// stored structure-of-arrays and partitioned into a fixed number of shards
// so one shard steps cache-linearly and shards fan out across cores.
//
// Layout contract (DESIGN.md Sect. 14):
//
//   * Columns, not structs. Each shard keeps one contiguous vector per
//     field (rate, buffer, backlog, tallies, arrival parameters); the hot
//     per-step loops touch only the columns they need, so a shard of 100k
//     streams streams through cache instead of striding over fat records.
//   * Shard placement is a pure function of the join sequence number
//     (round-robin), NOT of the thread count — the shard map is identical
//     whether the gateway runs serial or 8-wide, which is what makes the
//     byte-identical determinism contract (Sect. 9) hold under churn.
//   * Removal is swap-with-last inside the owning shard. Iteration order
//     within a shard therefore depends on churn history — which is fine,
//     because every fold over streams is either commutative (sums) or goes
//     through the id -> location map.
//
// Arrival generation is stateless: each stream's arrivals are a pure
// function of (model, local step), with the pseudo-random VBR model driven
// by a splitmix64 hash of (seed, step). No RNG state to carry, nothing to
// rewind on churn, and any stream's trace can be replayed independently.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/types.h"

namespace rtsmooth::gateway {

/// Stable stream handle: the join sequence number, never reused.
using StreamId = std::uint64_t;

/// Per-stream arrival process, evaluated statelessly at each local step
/// (steps since the stream joined).
struct ArrivalModel {
  enum class Kind : std::uint8_t {
    Constant,  ///< `bytes` every step
    OnOff,     ///< `bytes` for `on` steps, silence for `off`, phase-shifted
               ///< by `seed`
    Vbr,       ///< pseudo-random around mean `bytes` with periodic bursts,
               ///< hash-driven from `seed` — an MPEG-ish envelope
    Script,    ///< explicit per-step byte counts; 0 after the script ends
  };

  Kind kind = Kind::Constant;
  Bytes bytes = 0;  ///< per-step bytes / burst size / VBR mean
  Time on = 1;      ///< OnOff: steps transmitting per period
  Time off = 0;     ///< OnOff: silent steps per period
  std::uint64_t seed = 0;
  std::vector<Bytes> script;

  static ArrivalModel constant(Bytes per_step);
  static ArrivalModel on_off(Bytes burst, Time on, Time off,
                             std::uint64_t seed);
  static ArrivalModel vbr(Bytes mean, std::uint64_t seed);
  static ArrivalModel from_script(std::vector<Bytes> bytes_per_step);
};

/// What a joining stream declares: its nominal rate r, its deadline D, and
/// its weight class. The per-stream smoothing buffer is the paper's
/// identity applied per stream: B_i = r_i * D_i (Theorem 3.5) — a stream
/// trades its deadline for burst absorption exactly as a solo link would.
struct StreamSpec {
  Bytes rate = 1;              ///< r_i: nominal bytes/step on the shared link
  Time deadline = 1;           ///< D_i: smoothing delay budget in steps
  std::size_t weight_class = 0;
  ArrivalModel arrivals{};

  /// B_i = r_i * D_i.
  Bytes buffer() const { return rate * deadline; }

  /// First problem with the spec against a gateway with `class_count`
  /// weight classes, or empty when admissible.
  std::string validate(std::size_t class_count) const;
};

/// Ledger row for one stream, live or departed. The churn conservation
/// contract: every admitted byte is served, dropped (buffer overflow,
/// Eq. (3) per stream), written off as unserved at leave, or still
/// backlogged — and every served byte is either on time (waited <= D_i)
/// or late.
struct StreamStats {
  StreamId id = 0;
  std::size_t weight_class = 0;
  Bytes admitted = 0;
  Bytes served = 0;
  Bytes dropped = 0;
  Bytes unserved = 0;  ///< backlog written off when the stream left
  Bytes backlog = 0;   ///< still buffered (live streams only)
  Bytes served_on_time = 0;  ///< served bytes that waited <= D_i steps
  Bytes served_late = 0;     ///< served bytes that waited > D_i steps
  Time max_lateness = 0;     ///< peak (wait - D_i) over late bytes; 0 if none
  Time joined = 0;
  Time left = kNever;

  bool conserves() const {
    return admitted == served + dropped + unserved + backlog &&
           served == served_on_time + served_late;
  }
  bool operator==(const StreamStats&) const = default;
};

/// FIFO ring of arrival cohorts backing one stream's backlog: which step
/// each backlogged byte arrived at. Serving consumes the head (oldest
/// bytes first, matching the per-stream FIFO buffer), the Eq. (3) shed
/// consumes the tail (the newest bytes are the ones over B_i). The cohort
/// bytes sum to the stream's backlog column at every step boundary, so
/// wait = serve_step - arrival is exact per byte.
///
/// Storage: the first kInline cohorts live in the ring itself, so the
/// cohort column holds them and a stream-step that stays inline touches no
/// other memory (most rings hold one or two cohorts). Past that the ring
/// spills to a heap slab that doubles when full and is recycled across
/// steps, never shrunk — no steady-state allocation. The capacity is a
/// power of two at every size, so indices wrap with a mask. Indices are
/// 32-bit, checked on growth, which keeps the ring at 48 bytes. A move
/// carries the inline cohorts along (swap-with-last removal moves rings).
class CohortRing {
 public:
  struct Cohort {
    Time arrival = 0;
    Bytes bytes = 0;
  };

  /// Cohorts held without a heap slab; a power of two.
  static constexpr std::uint32_t kInline = 2;
  static_assert((kInline & (kInline - 1)) == 0);

  CohortRing() = default;
  CohortRing(CohortRing&& other) noexcept { take(other); }
  CohortRing& operator=(CohortRing&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  CohortRing(const CohortRing&) = delete;
  CohortRing& operator=(const CohortRing&) = delete;
  ~CohortRing() { release(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return std::size_t{mask_} + 1; }
  Cohort& front() { return data()[head_]; }
  Cohort& back() { return data()[(head_ + size_ - 1) & mask_]; }

  void push_back(Time arrival, Bytes bytes) {
    if (size_ > mask_) grow();
    data()[(head_ + size_) & mask_] = Cohort{arrival, bytes};
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  void pop_back() { --size_; }

 private:
  bool spilled() const { return mask_ >= kInline; }
  Cohort* data() { return spilled() ? heap_ : inline_; }
  /// Doubles the capacity, moving the cohorts to a slab in FIFO order.
  void grow();
  void release() {
    if (spilled()) delete[] heap_;
  }
  /// Takes `other`'s cohorts and leaves it empty and inline.
  void take(CohortRing& other) noexcept {
    if (other.spilled()) {
      heap_ = other.heap_;
    } else {
      for (std::uint32_t k = 0; k < kInline; ++k) inline_[k] = other.inline_[k];
    }
    head_ = other.head_;
    size_ = other.size_;
    mask_ = other.mask_;
    other.head_ = 0;
    other.size_ = 0;
    other.mask_ = kInline - 1;
  }

  union {
    Cohort inline_[kInline]{};  ///< while capacity() == kInline
    Cohort* heap_;              ///< once spilled
  };
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t mask_ = kInline - 1;  ///< capacity() - 1
};
// Swap-with-last removal moves a whole ring; keep the column slot small.
static_assert(sizeof(CohortRing) <= 48);

/// One shard's SoA columns. Exposed publicly (rather than hidden behind
/// per-stream accessors) because the gateway's step kernels ARE the reason
/// this layout exists; everything else goes through StreamPool's id-based
/// API.
struct Shard {
  std::vector<StreamId> id;
  std::vector<std::uint32_t> klass;
  std::vector<Bytes> rate;
  std::vector<Bytes> buffer;
  std::vector<Time> deadline;  ///< D_i: the stream's lateness budget
  std::vector<Bytes> backlog;
  std::vector<Bytes> demand;  ///< per-step scratch: backlog after arrivals
  std::vector<Bytes> alloc;   ///< per-step scratch: link bytes granted
  std::vector<Bytes> admitted;
  std::vector<Bytes> served;
  std::vector<Bytes> dropped;
  std::vector<Bytes> on_time;   ///< served bytes that waited <= D_i
  std::vector<Bytes> late;      ///< served bytes that waited > D_i
  std::vector<Time> max_late;   ///< peak lateness (wait - D_i) so far
  std::vector<CohortRing> cohorts;  ///< arrival-step FIFO behind backlog
  std::vector<Time> joined;
  // Arrival-model columns (see ArrivalModel).
  std::vector<std::uint8_t> arr_kind;
  std::vector<Bytes> arr_bytes;
  std::vector<Time> arr_on;
  std::vector<Time> arr_period;  ///< on + off
  std::vector<std::uint64_t> arr_seed;
  std::vector<std::int32_t> arr_script;  ///< index into scripts, -1 if none

  std::size_t size() const { return id.size(); }
};

/// splitmix64 finalizer: the stateless hash behind the VBR arrival model.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Bytes stream `i` of `shard` offers at local step `local_t` (steps since
/// join). Pure; safe to call from any shard task.
Bytes arrival_bytes(const Shard& shard, const std::vector<Bytes>* scripts,
                    std::size_t i, Time local_t);

/// The sharded stream table. Admission policy is the Gateway's business;
/// the pool just stores, locates, and swap-removes.
class StreamPool {
 public:
  /// `shards` >= 1; fixed for the pool's lifetime (determinism depends on
  /// the shard map never changing with the execution width).
  explicit StreamPool(std::size_t shards);

  /// Places the stream on shard (join_seq % shards) and returns its id.
  /// The spec must already be validated.
  StreamId add(const StreamSpec& spec, Time now);

  /// Removes the stream, folding its remaining backlog into `unserved`, and
  /// returns its final ledger row (left = now). Returns nullopt for an
  /// unknown or already-removed id.
  std::optional<StreamStats> remove(StreamId id, Time now);

  bool contains(StreamId id) const { return where_.count(id) > 0; }
  /// Live ledger row; nullopt for unknown ids.
  std::optional<StreamStats> stats(StreamId id) const;
  /// All live rows in (shard, slot) order — deterministic given the same
  /// churn history.
  std::vector<StreamStats> all_stats() const;

  std::size_t size() const { return live_; }
  std::size_t shard_count() const { return shards_.size(); }
  /// Sum of live nominal rates, maintained incrementally (admission math).
  Bytes subscribed_rate() const { return subscribed_; }

  Shard& shard(std::size_t s) { return shards_[s]; }
  const Shard& shard(std::size_t s) const { return shards_[s]; }
  /// Script side-table, indexed by Shard::arr_script. A departed stream's
  /// entry is emptied and handed to the next scripted join, so the table
  /// never outgrows the peak count of live scripted streams.
  const std::vector<std::vector<Bytes>>& scripts() const { return scripts_; }

 private:
  StreamStats row(const Shard& shard, std::size_t i) const;

  std::vector<Shard> shards_;
  std::vector<std::vector<Bytes>> scripts_;
  std::vector<std::int32_t> free_scripts_;  ///< emptied scripts_ entries
  /// id -> (shard, slot); slot is patched on swap-remove.
  std::unordered_map<StreamId, std::pair<std::uint32_t, std::uint32_t>> where_;
  StreamId next_id_ = 0;
  std::size_t live_ = 0;
  Bytes subscribed_ = 0;
};

}  // namespace rtsmooth::gateway
