// kSanitized: whether this build is instrumented by AddressSanitizer or
// ThreadSanitizer.  Instrumentation slows the threaded wire code by up to
// an order of magnitude and can starve a thread for tens of milliseconds,
// so wall-clock paced tests and benches widen their pacing and bounds on
// it.
#pragma once

namespace stpx {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

}  // namespace stpx
