// Copy-forward concurrency hammer (runs under TSan in CI's explicit
// concurrency gate): writer threads own disjoint row bands and demand
// read-your-writes while a migrator thread cycles the scheme under
// them. Forwarding must carry every in-flight write into the winning
// epoch — a lost forward shows up as a stale read or a final-image
// mismatch, a protocol race as a TSan report, and a copy bug as a
// nonzero differential-oracle count.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/adaptive_matrix.hpp"
#include "runtime/thread_pool.hpp"

namespace polymem::adapt {
namespace {

using access::PatternKind;
using core::AccessBatch;
using maf::Scheme;

constexpr std::int64_t kBandRows = 16;  // per writer thread
constexpr unsigned kWriters = 4;
constexpr int kIters = 40;

core::Word cell_value(unsigned writer, int iter, std::size_t k) {
  return runtime::derive_seed(writer * 1000003u + static_cast<unsigned>(iter),
                              k);
}

TEST(MigrationHammer, ReadYourWritesAcrossLiveMigrations) {
  core::PolyMemConfig cfg;
  cfg.scheme = Scheme::kReRo;
  cfg.p = 2;
  cfg.q = 4;
  cfg.height = kBandRows * kWriters;
  cfg.width = 64;

  AdaptiveOptions opts;
  opts.adapt = false;  // the migrator thread drives migrations explicitly
  runtime::ThreadPool pool(2);
  opts.pool = &pool;
  AdaptiveMatrix mat(cfg, opts);

  // One full-band batch per writer: 16 rows x 8 row-accesses, 1024
  // words. Supported by some schemes (compiled) and not others
  // (fallback) — both paths stay under the hammer as the scheme flips.
  const auto band_batch = [](unsigned w) {
    return AccessBatch{PatternKind::kRow,
                       {static_cast<std::int64_t>(w) * kBandRows, 0},
                       {0, 8},
                       8,
                       {1, 0},
                       kBandRows};
  };

  std::atomic<bool> stop{false};
  std::atomic<int> stale_reads{0};
  // Writers start once the first migration is under way, so the hammer
  // overlaps at least one live migration however the threads are
  // scheduled (fast writers could otherwise finish before the migrator
  // ran at all).
  std::atomic<bool> migrating{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const AccessBatch batch = band_batch(w);
      const auto words = static_cast<std::size_t>(batch.count()) * 8;
      std::vector<core::Word> data(words), got(words);
      while (!migrating.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (int iter = 0; iter < kIters; ++iter) {
        for (std::size_t k = 0; k < words; ++k) {
          data[k] = cell_value(w, iter, k);
        }
        mat.write_batch(batch, data);
        // Nobody else writes this band, so the engine's serialization
        // plus migration forwarding must make the write-back visible —
        // across any number of epoch flips in between.
        mat.read_batch(batch, got);
        if (got != data) stale_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // A scalar reader sweeping the whole space: epoch flips must never
  // tear or fault a concurrent load (values are owned by the writers,
  // so only liveness and memory-safety are asserted here).
  std::thread reader([&] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::int64_t j = 0; j < cfg.width; j += 8) {
        (void)mat.load({i, j});
      }
      i = (i + 1) % cfg.height;
    }
  });

  // The migrator cycles every scheme; migrate_to simply refuses while a
  // migration is already running.
  std::thread migrator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (maf::Scheme s : maf::kAllSchemes) {
        if (mat.migrate_to(s)) migrating.store(true, std::memory_order_release);
        std::this_thread::yield();
      }
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  migrator.join();
  reader.join();
  mat.wait_idle();

  EXPECT_EQ(stale_reads.load(), 0);

  // Final image: every band holds its owner's last iteration.
  for (unsigned w = 0; w < kWriters; ++w) {
    const AccessBatch batch = band_batch(w);
    const auto words = static_cast<std::size_t>(batch.count()) * 8;
    std::vector<core::Word> got(words);
    mat.read_batch(batch, got);
    int mismatches = 0;
    for (std::size_t k = 0; k < words; ++k) {
      if (got[k] != cell_value(w, kIters - 1, k)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0) << "writer " << w;
  }

  const auto s = mat.stats();
  // Every completed migration passed its differential oracle; aborts
  // can only come from a mismatch in this test, so there are none.
  EXPECT_EQ(s.mismatched_words, 0u);
  EXPECT_EQ(s.migrations_aborted, 0u);
  EXPECT_GE(s.migrations_completed, 1u);
  EXPECT_EQ(s.epoch, s.migrations_completed);
}

}  // namespace
}  // namespace polymem::adapt
