#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>

namespace transpwr {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  std::latch done(100);
  ThreadPool pool(4);  // destroyed first: workers join before the latch dies
  for (int i = 0; i < 100; ++i)
    pool.submit([&] {
      count.fetch_add(1);
      done.count_down();
    });
  done.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SizeClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

}  // namespace
}  // namespace transpwr
