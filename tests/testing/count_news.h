// A counting global operator new for tests that pin allocation counts:
// while g_count_news is set, every operator new call adds one to g_news.
//
// The header defines the replaced global operators, so a test binary
// includes it from exactly one source file; only binaries that include it
// link the replacements.
#ifndef SIMSUB_TESTS_TESTING_COUNT_NEWS_H_
#define SIMSUB_TESTS_TESTING_COUNT_NEWS_H_

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_news{false};
std::atomic<long long> g_news{0};
}  // namespace

// None is inlined: GCC 12 would otherwise see operator delete applied to a
// pointer from malloc, or free() to one from operator new, and warn
// (-Wmismatched-new-delete), though the replacements pair malloc with free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

#endif  // SIMSUB_TESTS_TESTING_COUNT_NEWS_H_
