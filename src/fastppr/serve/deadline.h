#ifndef FASTPPR_SERVE_DEADLINE_H_
#define FASTPPR_SERVE_DEADLINE_H_

// Request deadlines for the serving tier (DESIGN.md §10).
//
// A Deadline is an absolute instant on a monotonic nanosecond clock plus
// the clock itself (a plain function pointer, so a Deadline stays
// trivially copyable and a clock read costs one indirect call). The
// default clock is obs::NowNanos (steady_clock); tests install a fake
// clock function to drive expiry deterministically — mid-walk
// cancellation is then a unit test, not a sleep race.
//
// Deadlines are threaded by value through WalkerOptions into the walker
// accumulation loops (cooperative cancellation: the loop polls
// `expired()` every kDeadlineCheckStride appended positions) and
// through the serving tier's Request, where the remaining slack also
// drives the degradation ladder (serve/serving_tier.h).

#include <cstdint>
#include <limits>

#include "fastppr/obs/latency_histogram.h"

namespace fastppr::serve {

/// Monotonic nanosecond clock source. Must be callable from any thread.
using ClockFn = uint64_t (*)();

class Deadline {
 public:
  /// No deadline: never expires, infinite slack.
  Deadline() : deadline_ns_(kNone), clock_(&obs::NowNanos) {}

  static Deadline Infinite() { return Deadline(); }

  /// Expires `ns` nanoseconds after "now" on `clock`.
  static Deadline AfterNanos(uint64_t ns, ClockFn clock = &obs::NowNanos) {
    const uint64_t now = clock();
    // Saturate instead of wrapping: a caller asking for "practically
    // forever" must not get an already-expired deadline.
    const uint64_t at =
        ns > kNone - 1 - now ? kNone - 1 : now + ns;
    return Deadline(at, clock);
  }

  static Deadline AfterMicros(uint64_t us, ClockFn clock = &obs::NowNanos) {
    return AfterNanos(us * 1000, clock);
  }

  static Deadline AfterMillis(uint64_t ms, ClockFn clock = &obs::NowNanos) {
    return AfterNanos(ms * 1000 * 1000, clock);
  }

  /// Expires at the absolute instant `at_ns` on `clock`.
  static Deadline AtNanos(uint64_t at_ns, ClockFn clock = &obs::NowNanos) {
    return Deadline(at_ns, clock);
  }

  /// Already expired (slack 0) — the "fail fast" sentinel.
  static Deadline Expired(ClockFn clock = &obs::NowNanos) {
    return Deadline(0, clock);
  }

  bool has_deadline() const { return deadline_ns_ != kNone; }

  bool expired() const {
    return has_deadline() && clock_() >= deadline_ns_;
  }

  /// Nanoseconds until expiry: 0 when expired, max() when infinite.
  uint64_t remaining_nanos() const {
    if (!has_deadline()) return kNone;
    const uint64_t now = clock_();
    return now >= deadline_ns_ ? 0 : deadline_ns_ - now;
  }

  /// The absolute expiry instant (max() when infinite).
  uint64_t deadline_nanos() const { return deadline_ns_; }
  ClockFn clock() const { return clock_; }

 private:
  static constexpr uint64_t kNone = std::numeric_limits<uint64_t>::max();

  Deadline(uint64_t at_ns, ClockFn clock)
      : deadline_ns_(at_ns), clock_(clock) {}

  uint64_t deadline_ns_;
  ClockFn clock_;
};

}  // namespace fastppr::serve

#endif  // FASTPPR_SERVE_DEADLINE_H_
