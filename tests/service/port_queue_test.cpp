#include "service/port_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace polymem::service {
namespace {

using access::Coord;
using access::PatternKind;

PendingRequest row_read(std::int64_t i, std::int64_t j, std::uint64_t tag) {
  PendingRequest pr;
  pr.request.op = Op::kRead;
  pr.request.where = {PatternKind::kRow, Coord{i, j}};
  pr.request.tag = tag;
  return pr;
}

PendingRequest row_write(std::int64_t i, std::int64_t j, std::uint64_t tag) {
  PendingRequest pr = row_read(i, j, tag);
  pr.request.op = Op::kWrite;
  return pr;
}

TEST(PortQueue, OverflowShedsTypedNeverSilently) {
  // The slot array rounds the bound up to a power of two (a bound of 3
  // has 4 slots, a bound of 1 has one): the bound, not the array, sheds.
  for (const std::size_t bound : {1u, 2u, 3u, 5u}) {
    SCOPED_TRACE(bound);
    const auto n = static_cast<std::int64_t>(bound);
    PortQueue queue(bound);
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(queue.try_push(row_read(i, 0, static_cast<std::uint64_t>(i))),
                Status::kAccepted);
    }
    EXPECT_EQ(queue.try_push(row_read(n, 0, bound)), Status::kOverloaded);
    EXPECT_EQ(queue.depth(), bound);
    const auto stats = queue.stats();
    EXPECT_EQ(stats.pushed, bound);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.max_depth, bound);

    // Shedding is not sticky: popping frees capacity again, and the shed
    // push overwrote nothing.
    std::vector<PendingRequest> run;
    core::AccessBatch batch;
    ASSERT_EQ(queue.pop_run(64, run, batch), bound);
    EXPECT_EQ(run.front().request.tag, 0u);
    EXPECT_EQ(run.back().request.tag, bound - 1);
    EXPECT_EQ(queue.try_push(row_read(n, 0, bound)), Status::kAccepted);
    ASSERT_EQ(queue.pop_run(64, run, batch), 1u);
    EXPECT_EQ(run.front().request.tag, bound);
  }
}

TEST(PortQueue, BoundMustBePositive) {
  EXPECT_THROW(PortQueue(0), InvalidArgument);
  EXPECT_THROW(PortQueue(8, 8, 0), InvalidArgument);
}

TEST(PortQueue, PopRunCoalescesConstantStridePrefix) {
  PortQueue queue(16);
  for (std::int64_t i = 0; i < 5; ++i) {
    ASSERT_EQ(queue.try_push(row_read(i, 4, static_cast<std::uint64_t>(i))),
              Status::kAccepted);
  }
  std::vector<PendingRequest> run;
  core::AccessBatch batch;
  ASSERT_EQ(queue.pop_run(64, run, batch), 5u);
  EXPECT_EQ(batch.kind, PatternKind::kRow);
  EXPECT_EQ(batch.start, (Coord{0, 4}));
  EXPECT_EQ(batch.inner_stride, (Coord{1, 0}));
  EXPECT_EQ(batch.inner_count, 5);
  EXPECT_EQ(batch.outer_count, 1);
  for (std::uint64_t t = 0; t < 5; ++t) EXPECT_EQ(run[t].request.tag, t);
  EXPECT_TRUE(queue.empty());
}

TEST(PortQueue, RunBreaksOnOpAndKindAndStride) {
  PortQueue queue(16);
  // Two coalescible reads, then a write, then a rect, then a stride break.
  ASSERT_EQ(queue.try_push(row_read(0, 0, 0)), Status::kAccepted);
  ASSERT_EQ(queue.try_push(row_read(1, 0, 1)), Status::kAccepted);
  ASSERT_EQ(queue.try_push(row_write(2, 0, 2)), Status::kAccepted);
  PendingRequest rect = row_read(3, 0, 3);
  rect.request.where.kind = PatternKind::kRect;
  ASSERT_EQ(queue.try_push(std::move(rect)), Status::kAccepted);
  ASSERT_EQ(queue.try_push(row_read(10, 0, 4)), Status::kAccepted);
  ASSERT_EQ(queue.try_push(row_read(20, 0, 5)), Status::kAccepted);
  ASSERT_EQ(queue.try_push(row_read(30, 0, 6)), Status::kAccepted);
  ASSERT_EQ(queue.try_push(row_read(31, 0, 7)), Status::kAccepted);

  std::vector<PendingRequest> run;
  core::AccessBatch batch;
  ASSERT_EQ(queue.pop_run(64, run, batch), 2u);  // reads stop at the write
  EXPECT_EQ(batch.inner_count, 2);

  ASSERT_EQ(queue.pop_run(64, run, batch), 1u);  // the write, alone
  EXPECT_EQ(run[0].request.op, Op::kWrite);
  EXPECT_EQ(batch.inner_count, 1);
  EXPECT_EQ(batch.inner_stride, (Coord{0, 0}));  // singleton: no stride

  ASSERT_EQ(queue.pop_run(64, run, batch), 1u);  // the rect, alone
  EXPECT_EQ(batch.kind, PatternKind::kRect);

  // (10,0),(20,0),(30,0) advance by 10; (31,0) breaks the progression.
  ASSERT_EQ(queue.pop_run(64, run, batch), 3u);
  EXPECT_EQ(batch.inner_stride, (Coord{10, 0}));
  ASSERT_EQ(queue.pop_run(64, run, batch), 1u);
  EXPECT_EQ(run[0].request.tag, 7u);
  EXPECT_EQ(queue.pop_run(64, run, batch), 0u);
}

TEST(PortQueue, MaxRunCapsTheBatch) {
  PortQueue queue(16);
  for (std::int64_t i = 0; i < 8; ++i) {
    ASSERT_EQ(queue.try_push(row_read(i, 0, static_cast<std::uint64_t>(i))),
              Status::kAccepted);
  }
  std::vector<PendingRequest> run;
  core::AccessBatch batch;
  EXPECT_EQ(queue.pop_run(3, run, batch), 3u);
  EXPECT_EQ(queue.pop_run(3, run, batch), 3u);
  EXPECT_EQ(queue.pop_run(3, run, batch), 2u);
}

TEST(PortQueue, ZeroStrideRunCoalesces) {
  PortQueue queue(16);
  for (std::uint64_t t = 0; t < 4; ++t) {
    ASSERT_EQ(queue.try_push(row_read(2, 8, t)), Status::kAccepted);
  }
  std::vector<PendingRequest> run;
  core::AccessBatch batch;
  ASSERT_EQ(queue.pop_run(64, run, batch), 4u);
  EXPECT_EQ(batch.inner_stride, (Coord{0, 0}));
  EXPECT_EQ(batch.inner_count, 4);
}

TEST(PortQueue, TileConstraintBreaksRunsAtTileBoundary) {
  PortQueue queue(16, /*tile_rows=*/8, /*tile_cols=*/32);
  ASSERT_EQ(queue.try_push(row_read(6, 0, 0)), Status::kAccepted);
  ASSERT_EQ(queue.try_push(row_read(7, 0, 1)), Status::kAccepted);
  ASSERT_EQ(queue.try_push(row_read(8, 0, 2)), Status::kAccepted);  // next tile
  std::vector<PendingRequest> run;
  core::AccessBatch batch;
  ASSERT_EQ(queue.pop_run(64, run, batch), 2u);
  ASSERT_EQ(queue.pop_run(64, run, batch), 1u);
  EXPECT_EQ(run[0].request.tag, 2u);
}

TEST(PortQueue, PopAllDrainsEverythingInFifoOrder) {
  PortQueue queue(16);
  ASSERT_EQ(queue.try_push(row_read(0, 0, 0)), Status::kAccepted);
  ASSERT_EQ(queue.try_push(row_write(5, 0, 1)), Status::kAccepted);
  ASSERT_EQ(queue.try_push(row_read(9, 0, 2)), Status::kAccepted);
  std::vector<PendingRequest> run;
  ASSERT_EQ(queue.pop_all(run), 3u);
  for (std::uint64_t t = 0; t < 3; ++t) EXPECT_EQ(run[t].request.tag, t);
  EXPECT_TRUE(queue.empty());
}

TEST(PortQueue, ConcurrentSubmittersKeepFifoPerSubmitterAndShedExactly) {
  // 4 submitters x 64 requests into a bound of 128: exactly 256 - shed
  // are queued; each submitter's accepted tags drain in its own order.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 64;
  PortQueue queue(128);
  std::vector<std::vector<std::uint64_t>> accepted(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&queue, &accepted, w] {
      for (std::uint64_t t = 0; t < kPer; ++t) {
        const std::uint64_t tag = static_cast<std::uint64_t>(w) * 1000 + t;
        if (queue.try_push(row_read(0, 0, tag)) == Status::kAccepted) {
          accepted[static_cast<std::size_t>(w)].push_back(tag);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<PendingRequest> drained;
  queue.pop_all(drained);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed, drained.size());
  EXPECT_EQ(stats.pushed + stats.shed, kThreads * kPer);
  EXPECT_LE(drained.size(), 128u);

  // Per-submitter FIFO: the drained tags of each thread appear in
  // submission order.
  std::vector<std::vector<std::uint64_t>> seen(kThreads);
  for (const auto& pr : drained) {
    seen[pr.request.tag / 1000].push_back(pr.request.tag);
  }
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(seen[static_cast<std::size_t>(w)],
              accepted[static_cast<std::size_t>(w)]);
  }
}

TEST(PortQueue, LiveConsumerPopsEveryAcceptedTagOnceInSubmitOrder) {
  // 3 producers push into a bound of 8 while a consumer pops runs at the
  // same time, so claims, publications and slot reuse interleave.
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPer = 2000;
  constexpr std::size_t kBound = 8;
  PortQueue queue(kBound);
  std::atomic<bool> producing{true};
  std::vector<PendingRequest> popped;
  std::thread consumer([&queue, &producing, &popped] {
    std::vector<PendingRequest> run;
    core::AccessBatch batch;
    for (;;) {
      if (queue.pop_run(16, run, batch) > 0) {
        for (PendingRequest& pr : run) popped.push_back(std::move(pr));
      } else if (!producing.load(std::memory_order_acquire) &&
                 queue.empty()) {
        break;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::vector<std::uint64_t>> accepted(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int w = 0; w < kProducers; ++w) {
    producers.emplace_back([&queue, &accepted, w] {
      for (std::uint64_t t = 0; t < kPer; ++t) {
        // Rows advance by one, so a producer's consecutive requests
        // coalesce until another producer's claim breaks the stride.
        const std::uint64_t tag = static_cast<std::uint64_t>(w) * kPer + t;
        const auto row = static_cast<std::int64_t>(t % 16);
        if (queue.try_push(row_read(row, 0, tag)) == Status::kAccepted) {
          accepted[static_cast<std::size_t>(w)].push_back(tag);
        }
      }
    });
  }
  for (auto& th : producers) th.join();
  producing.store(false, std::memory_order_release);
  consumer.join();

  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed, popped.size());
  EXPECT_EQ(stats.pushed + stats.shed, kProducers * kPer);
  EXPECT_LE(stats.max_depth, kBound);
  std::vector<std::vector<std::uint64_t>> seen(kProducers);
  for (std::size_t k = 0; k < popped.size(); ++k) {
    EXPECT_EQ(popped[k].position, k);  // FIFO in claim order
    seen[popped[k].request.tag / kPer].push_back(popped[k].request.tag);
  }
  // Exactly once, and in each producer's submit order.
  for (int w = 0; w < kProducers; ++w) {
    EXPECT_EQ(seen[static_cast<std::size_t>(w)],
              accepted[static_cast<std::size_t>(w)]);
  }
}

}  // namespace
}  // namespace polymem::service
