// ServiceEngine, pumped manually (drain_once / run_until_idle) so every
// test is deterministic: the differential oracle replays completed
// requests in execution-sequence order against a plain PolyMem.
#include "service/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "maxsim/lmem.hpp"

namespace polymem::service {
namespace {

using access::Coord;
using access::ParallelAccess;
using access::PatternKind;

core::PolyMemConfig cfg(unsigned read_ports = 2) {
  core::PolyMemConfig c;
  c.scheme = maf::Scheme::kReRo;
  c.p = 2;
  c.q = 4;
  c.height = 16;
  c.width = 32;
  c.read_ports = read_ports;
  return c;
}

void fill(core::PolyMem& mem) {
  for (std::int64_t i = 0; i < mem.config().height; ++i) {
    for (std::int64_t j = 0; j < mem.config().width; ++j) {
      mem.store({i, j}, static_cast<hw::Word>(i * 1000 + j));
    }
  }
}

/// Records every completion; owned data copies survive the callback.
struct Recorder : CompletionListener {
  struct Entry {
    Completion meta;  // .data dangles after the callback; use .data below
    std::vector<Word> data;
  };
  std::vector<Entry> entries;

  void on_complete(const Completion& completion) override {
    entries.push_back(
        {completion, {completion.data.begin(), completion.data.end()}});
  }
  std::size_t ok_count() const {
    std::size_t n = 0;
    for (const auto& e : entries) n += e.meta.status == Status::kOk ? 1 : 0;
    return n;
  }
};

Request read_req(ParallelAccess where, std::uint64_t tag, Recorder* rec,
                 Tenant tenant = 0) {
  Request r;
  r.tenant = tenant;
  r.op = Op::kRead;
  r.where = where;
  r.tag = tag;
  r.listener = rec;
  return r;
}

Request write_req(ParallelAccess where, std::vector<Word> payload,
                  std::uint64_t tag, Recorder* rec, Tenant tenant = 0) {
  Request r = read_req(where, tag, rec, tenant);
  r.op = Op::kWrite;
  r.payload = std::move(payload);
  return r;
}

TEST(ServiceEngine, CoalescedReadsMatchSerialReplay) {
  core::PolyMem mem(cfg());
  fill(mem);
  EngineOptions opt;
  opt.ports = 2;
  ServiceEngine engine(mem, opt);
  Recorder rec;

  // Mixed traffic on both ports: scan runs, stride jumps, pattern mixes.
  std::map<std::uint64_t, ParallelAccess> trace;
  std::uint64_t tag = 0;
  for (std::int64_t i = 0; i < 12; ++i) {
    const ParallelAccess a{PatternKind::kRow, {i, 8}};
    trace[tag] = a;
    ASSERT_EQ(engine.submit(i % 2 == 0 ? 0u : 1u, read_req(a, tag, &rec)),
              Status::kAccepted);
    ++tag;
  }
  for (std::int64_t j = 0; j < 3; ++j) {
    const ParallelAccess a{PatternKind::kRect, {4, j * 8}};
    trace[tag] = a;
    ASSERT_EQ(engine.submit(0, read_req(a, tag, &rec)), Status::kAccepted);
    ++tag;
  }
  engine.run_until_idle();

  ASSERT_EQ(rec.entries.size(), trace.size());
  core::PolyMem reference(cfg());
  fill(reference);
  for (const auto& e : rec.entries) {
    EXPECT_EQ(e.meta.status, Status::kOk);
    EXPECT_EQ(e.data, reference.read(trace.at(e.meta.tag)))
        << "tag " << e.meta.tag;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.accepted, trace.size());
  EXPECT_EQ(stats.completed_reads, trace.size());
  EXPECT_GE(stats.compiled_runs, 1u);  // the scans coalesced
  EXPECT_GT(stats.mean_run_length(), 1.0);
}

TEST(ServiceEngine, WriteThenReadOnSamePortIsOrdered) {
  core::PolyMem mem(cfg());
  fill(mem);
  ServiceEngine engine(mem);
  Recorder rec;

  const ParallelAccess where{PatternKind::kRow, {3, 16}};
  std::vector<Word> payload(mem.lanes());
  for (std::size_t k = 0; k < payload.size(); ++k) {
    payload[k] = 0xABC000 + static_cast<Word>(k);
  }
  ASSERT_EQ(engine.submit(0, write_req(where, payload, 0, &rec)),
            Status::kAccepted);
  ASSERT_EQ(engine.submit(0, read_req(where, 1, &rec)), Status::kAccepted);
  engine.run_until_idle();

  ASSERT_EQ(rec.entries.size(), 2u);
  // FIFO per port: the read observes the write.
  const auto& read_entry = rec.entries[1];
  EXPECT_EQ(read_entry.meta.op, Op::kRead);
  EXPECT_EQ(read_entry.data, payload);
  EXPECT_EQ(engine.stats().completed_writes, 1u);
}

TEST(ServiceEngine, WriteRunsCoalesceAndLand) {
  core::PolyMem mem(cfg());
  ServiceEngine engine(mem);
  Recorder rec;
  const unsigned lanes = mem.lanes();
  for (std::int64_t i = 0; i < 8; ++i) {
    std::vector<Word> payload(lanes);
    for (unsigned k = 0; k < lanes; ++k) {
      payload[k] = static_cast<Word>(i * 100 + k);
    }
    ASSERT_EQ(engine.submit(0, write_req({PatternKind::kRow, {i, 0}},
                                         std::move(payload),
                                         static_cast<std::uint64_t>(i), &rec)),
              Status::kAccepted);
  }
  engine.run_until_idle();
  EXPECT_GE(engine.stats().compiled_runs, 1u);
  for (std::int64_t i = 0; i < 8; ++i) {
    for (unsigned k = 0; k < lanes; ++k) {
      EXPECT_EQ(mem.load({i, static_cast<std::int64_t>(k)}),
                static_cast<Word>(i * 100 + k));
    }
  }
}

TEST(ServiceEngine, OverloadShedsWithTypedStatus) {
  core::PolyMem mem(cfg());
  fill(mem);
  EngineOptions opt;
  opt.queue_bound = 4;
  ServiceEngine engine(mem, opt);
  Recorder rec;
  int overloaded = 0;
  for (std::int64_t i = 0; i < 7; ++i) {
    const Status s = engine.submit(
        0, read_req({PatternKind::kRow, {i, 0}},
                    static_cast<std::uint64_t>(i), &rec));
    if (s == Status::kOverloaded) ++overloaded;
  }
  EXPECT_EQ(overloaded, 3);
  const EngineStats before = engine.stats();
  EXPECT_EQ(before.accepted, 4u);
  EXPECT_EQ(before.shed, 3u);
  engine.run_until_idle();
  EXPECT_EQ(rec.entries.size(), 4u);  // shed requests never complete
  EXPECT_EQ(engine.stats().max_queue_depth, 4u);
}

TEST(ServiceEngine, RejectsMalformedRequestsSynchronously) {
  core::PolyMem mem(cfg());
  ServiceEngine engine(mem);
  Recorder rec;

  // Null listener.
  Request no_listener = read_req({PatternKind::kRow, {0, 0}}, 0, nullptr);
  EXPECT_EQ(engine.submit(0, std::move(no_listener)), Status::kRejected);
  // Out of bounds.
  EXPECT_EQ(engine.submit(0, read_req({PatternKind::kRow, {0, 30}}, 1, &rec)),
            Status::kRejected);
  EXPECT_EQ(engine.submit(0, read_req({PatternKind::kRow, {-1, 0}}, 2, &rec)),
            Status::kRejected);
  // Wrong payload size.
  EXPECT_EQ(engine.submit(0, write_req({PatternKind::kRow, {0, 0}},
                                       std::vector<Word>(3), 3, &rec)),
            Status::kRejected);
  // Reads carry no payload.
  Request read_with_payload = read_req({PatternKind::kRow, {0, 0}}, 4, &rec);
  read_with_payload.payload.resize(8);
  EXPECT_EQ(engine.submit(0, std::move(read_with_payload)), Status::kRejected);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.rejected, 5u);
  EXPECT_TRUE(rec.entries.empty());
}

TEST(ServiceEngine, CallbacksFireExactlyOnceWithUniqueIds) {
  // Ids derive from the port and its queue position: unique across
  // ports too.
  for (const unsigned ports : {1u, 3u}) {
    SCOPED_TRACE(ports);
    core::PolyMem mem(cfg());
    fill(mem);
    EngineOptions opt;
    opt.ports = ports;
    opt.max_coalesce = 4;
    ServiceEngine engine(mem, opt);
    Recorder rec;
    std::set<RequestId> submitted;
    for (std::int64_t i = 0; i < 16; ++i) {
      RequestId id = 0;
      ASSERT_EQ(
          engine.submit(static_cast<unsigned>(i) % ports,
                        read_req({PatternKind::kRow, {i % 16, 0}},
                                 static_cast<std::uint64_t>(i), &rec),
                        &id),
          Status::kAccepted);
      EXPECT_TRUE(submitted.insert(id).second) << "duplicate id " << id;
      if (i % 5 == 4) engine.drain_once();  // interleave draining
    }
    engine.run_until_idle();
    ASSERT_EQ(rec.entries.size(), submitted.size());
    std::set<RequestId> completed;
    for (const auto& e : rec.entries) {
      EXPECT_TRUE(completed.insert(e.meta.id).second)
          << "id " << e.meta.id << " completed twice";
      EXPECT_EQ(submitted.count(e.meta.id), 1u);
    }
  }
}

TEST(ServiceEngine, CompletionsRetireInCycleOrderWithModeledLatency) {
  core::PolyMem mem(cfg());
  fill(mem);
  ServiceEngine engine(mem);
  Recorder rec;
  for (std::int64_t i = 0; i < 6; ++i) {
    ASSERT_EQ(engine.submit(0, read_req({PatternKind::kRow, {i, 0}},
                                        static_cast<std::uint64_t>(i), &rec)),
              Status::kAccepted);
  }
  engine.run_until_idle();
  ASSERT_EQ(rec.entries.size(), 6u);
  std::uint64_t last_cycle = 0;
  for (const auto& e : rec.entries) {
    EXPECT_GE(e.meta.complete_cycle, last_cycle);
    last_cycle = e.meta.complete_cycle;
    // Pipeline model: at least read_latency cycles after submission.
    EXPECT_GE(e.meta.complete_cycle - e.meta.submit_cycle,
              static_cast<std::uint64_t>(mem.config().read_latency));
  }
}

TEST(ServiceEngine, StopCompletesQueuedRequestsAsShutdown) {
  core::PolyMem mem(cfg());
  fill(mem);
  ServiceEngine engine(mem);
  Recorder rec;
  for (std::int64_t i = 0; i < 5; ++i) {
    ASSERT_EQ(engine.submit(0, read_req({PatternKind::kRow, {i, 0}},
                                        static_cast<std::uint64_t>(i), &rec)),
              Status::kAccepted);
  }
  engine.stop();  // never drained: everything sweeps out as kShutdown
  ASSERT_EQ(rec.entries.size(), 5u);
  for (const auto& e : rec.entries) {
    EXPECT_EQ(e.meta.status, Status::kShutdown);
    EXPECT_TRUE(e.data.empty());
  }
  EXPECT_EQ(engine.stats().shutdown_completions, 5u);
  // Admission is closed after stop.
  EXPECT_EQ(engine.submit(0, read_req({PatternKind::kRow, {0, 0}}, 9, &rec)),
            Status::kShutdown);
}

TEST(ServiceEngine, ManualDrainIsDeterministic) {
  auto run = [] {
    core::PolyMem mem(cfg());
    fill(mem);
    EngineOptions opt;
    opt.ports = 2;
    opt.max_coalesce = 8;
    ServiceEngine engine(mem, opt);
    Recorder rec;
    std::uint64_t tag = 0;
    for (std::int64_t i = 0; i < 10; ++i) {
      EXPECT_EQ(
          engine.submit(static_cast<unsigned>(i % 2),
                        read_req({PatternKind::kRow, {i, 8}}, tag++, &rec)),
          Status::kAccepted);
    }
    engine.run_until_idle();
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> out;
    out.reserve(rec.entries.size());
    for (const auto& e : rec.entries) {
      out.emplace_back(e.meta.tag, e.meta.sequence, e.meta.complete_cycle);
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(ServiceEngine, ManualPumpForbiddenOnStartedEngine) {
  core::PolyMem mem(cfg());
  ServiceEngine engine(mem);
  runtime::ThreadPool pool(1);
  engine.start(pool);
  EXPECT_THROW(engine.drain_once(), InvalidArgument);
  EXPECT_THROW(engine.run_until_idle(), InvalidArgument);
  engine.stop();
}

// ----- tile-cached mode -------------------------------------------------

maxsim::LMemMatrix make_matrix(maxsim::LMem& lmem, std::int64_t rows = 64,
                               std::int64_t cols = 64) {
  maxsim::LMemMatrix m{64, rows, cols, cols};
  std::vector<hw::Word> row(static_cast<std::size_t>(cols));
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      row[static_cast<std::size_t>(j)] = static_cast<hw::Word>(i * 1000 + j);
    }
    lmem.write(m.word_addr(i, 0), row);
  }
  return m;
}

TEST(ServiceEngineCached, ReadsMatchTheMatrixAndMissesCostLatency) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(cfg());
  const auto matrix = make_matrix(lmem);
  cache::TileCache cache(lmem, mem, matrix,
                         core::FramePool::whole_space(mem.config(), 8, 32));
  EngineOptions opt;
  opt.miss_penalty_cycles = 100;
  ServiceEngine engine(cache, opt);
  Recorder rec;

  // Rows 0..3 of tile (0,0), then rows 16..19 of tile (2,1).
  std::uint64_t tag = 0;
  for (std::int64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(engine.submit(0, read_req({PatternKind::kRow, {i, 8}}, tag++,
                                        &rec)),
              Status::kAccepted);
  }
  for (std::int64_t i = 16; i < 20; ++i) {
    ASSERT_EQ(engine.submit(0, read_req({PatternKind::kRow, {i, 40}}, tag++,
                                        &rec)),
              Status::kAccepted);
  }
  engine.run_until_idle();

  ASSERT_EQ(rec.entries.size(), 8u);
  for (const auto& e : rec.entries) {
    const std::int64_t i = static_cast<std::int64_t>(e.meta.tag) < 4
                               ? static_cast<std::int64_t>(e.meta.tag)
                               : 12 + static_cast<std::int64_t>(e.meta.tag);
    const std::int64_t j = e.meta.tag < 4 ? 8 : 40;
    for (unsigned k = 0; k < mem.lanes(); ++k) {
      EXPECT_EQ(e.data[k], static_cast<hw::Word>(i * 1000 + j + k))
          << "tag " << e.meta.tag;
    }
    // Both runs fault their tile: the miss penalty shows in the latency.
    EXPECT_GE(e.meta.complete_cycle - e.meta.submit_cycle, 100u);
  }
  EXPECT_EQ(engine.stats().tile_misses, 2u);
  EXPECT_EQ(cache.stats().counters().misses, 2u);
}

TEST(ServiceEngineCached, RejectsTileCrossingAccesses) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(cfg());
  const auto matrix = make_matrix(lmem);
  cache::TileCache cache(lmem, mem, matrix,
                         core::FramePool::whole_space(mem.config(), 8, 32));
  ServiceEngine engine(cache);
  Recorder rec;
  // A row crossing the column-tile boundary at 32, and one crossing the
  // matrix edge.
  EXPECT_EQ(engine.submit(0, read_req({PatternKind::kRow, {0, 28}}, 0, &rec)),
            Status::kRejected);
  EXPECT_EQ(engine.submit(0, read_req({PatternKind::kRow, {0, 60}}, 1, &rec)),
            Status::kRejected);
  // A rect crossing the row-tile boundary at 8.
  EXPECT_EQ(engine.submit(0, read_req({PatternKind::kRect, {7, 0}}, 2, &rec)),
            Status::kRejected);
  // In-tile equivalents are accepted.
  EXPECT_EQ(engine.submit(0, read_req({PatternKind::kRow, {0, 24}}, 3, &rec)),
            Status::kAccepted);
  EXPECT_EQ(engine.submit(0, read_req({PatternKind::kRect, {6, 0}}, 4, &rec)),
            Status::kAccepted);
  engine.run_until_idle();
  EXPECT_EQ(rec.entries.size(), 2u);
}

TEST(ServiceEngineCached, WritesMarkDirtyAndFlushPublishesToLMem) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(cfg());
  const auto matrix = make_matrix(lmem);
  cache::TileCache cache(lmem, mem, matrix,
                         core::FramePool::whole_space(mem.config(), 8, 32));
  ServiceEngine engine(cache);
  Recorder rec;

  const std::int64_t row = 17, col = 32;  // tile (2, 1)
  std::vector<Word> payload(mem.lanes());
  for (std::size_t k = 0; k < payload.size(); ++k) {
    payload[k] = 0xD00D00 + static_cast<Word>(k);
  }
  ASSERT_EQ(engine.submit(0, write_req({PatternKind::kRow, {row, col}},
                                       payload, 0, &rec)),
            Status::kAccepted);
  ASSERT_EQ(engine.submit(0, read_req({PatternKind::kRow, {row, col}}, 1,
                                      &rec)),
            Status::kAccepted);
  engine.run_until_idle();

  ASSERT_EQ(rec.entries.size(), 2u);
  EXPECT_EQ(rec.entries[1].data, payload);  // read-after-write via the frame

  // LMem still holds the old data until flush.
  std::vector<hw::Word> lmem_row(payload.size());
  lmem.read(matrix.word_addr(row, col), lmem_row);
  EXPECT_NE(lmem_row, payload);
  cache.flush();
  lmem.read(matrix.word_addr(row, col), lmem_row);
  EXPECT_EQ(lmem_row, payload);
}

TEST(ServiceEngineCached, RequiresWriteBackPolicy) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(cfg());
  const auto matrix = make_matrix(lmem);
  cache::CacheOptions copt;
  copt.write_policy = cache::WritePolicy::kWriteThrough;
  cache::TileCache cache(lmem, mem, matrix,
                         core::FramePool::whole_space(mem.config(), 8, 32),
                         copt);
  EXPECT_THROW(ServiceEngine{cache}, InvalidArgument);
}

}  // namespace
}  // namespace polymem::service
