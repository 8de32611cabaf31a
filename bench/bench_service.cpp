// Service-layer load generator; emits BENCH_service.json (committed at
// the repo root).
//
// Closed-loop clients hammer the PolyMem-as-a-service engine
// (src/service) with Zipf-skewed scan bursts: each client repeatedly
// picks a popular anchor, then walks consecutive rows — the streaming
// shape the per-port coalescer turns into one read_batch / write_batch
// call per run. A quarter of the bursts are WRITES: reads
// draw from a shared read-only region (so the serial replay stays a
// valid oracle under concurrency), writes land in each client's
// private row band (per-client FIFO makes the final image
// deterministic), and every write's payload is derived from its
// request tag — so both the completed reads and the end-state memory
// are differentially verifiable. Four configurations over the SAME
// trace:
//
//  1. serial_baseline — no service at all: one synchronous read_into
//     per request on a plain PolyMem (the compiled single-access path,
//     BENCH_core.json's single column). This is the throughput to beat.
//  2. engine_1port    — every client funnels into one bounded queue;
//     bursts from different clients interleave, so runs stay short.
//  3. engine_multiport — one queue per client (ports = clients,
//     read_ports = ports): each port's FIFO prefix is one client's
//     burst, so the drain coalesces near-full runs and serves each with
//     one read_batch / write_batch call (BENCH_core.json's batched
//     column).
//  4. sharded_multitenant — a 256x256 LMem-resident matrix served by 4
//     PolyMem shards (each a write-back TileCache over the shared
//     LMem), 6 tenants routed by anchor-tile hash; Zipf tile
//     popularity makes the per-shard caches earn their keep.
//
// Each engine configuration is measured in two phases:
//
//  - *closed loop*: clients run on their own threads, retrying on
//    kOverloaded — this is where latency percentiles, shedding and
//    retry counts come from. Its wall clock includes the clients' own
//    submit cost; on hosts with fewer cores than threads the producers
//    time-share the clock against the drain, so this number undersells
//    the drain on small machines.
//  - *saturated drain*: the same trace is queued wave by wave with the
//    drain stopped, then the drain is pumped to quiescence on the
//    caller's thread and only the pump is timed. That is the drain's
//    sustained service rate — coalesce + compile + gather + retire —
//    independent of the host's core count.
//
// The serial baseline and every saturated drain run kTrials passes, each
// on a fresh memory (and a fresh engine), and report the median pass
// time: a single pass swings too widely to settle the gate's ratio.
//
// Every completed read is copied into a slot addressed by its request
// tag and differentially verified bit-for-bit against the serial
// replay (direct configs) or the host mirror of the LMem matrix
// (sharded config), in both phases and in every pass. Latency is
// complete_cycle - submit_cycle on the engine's modeled clock,
// summarized as p50/p95/p99 through the common/stats Reservoir. A data
// divergence — or, in the full run, a saturated multi-port drain that
// fails to outrun the serial baseline — exits nonzero so CI can gate on
// the smoke invocation (--tiny).
//
// Usage: bench_service [--tiny] [output.json]  (default BENCH_service.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "harness.hpp"
#include "maxsim/lmem.hpp"
#include "runtime/thread_pool.hpp"
#include "service/sharded.hpp"

namespace {

using namespace polymem;

constexpr double kZipfSkew = 0.9;
constexpr std::int64_t kBurstMin = 8;
constexpr std::int64_t kBurstMax = 16;
/// Fraction of bursts that are writes (both trace generators).
constexpr double kWriteFraction = 0.25;
/// Salt for tag-derived write payloads (recomputable anywhere).
constexpr std::uint64_t kPayloadSalt = 0x77aa55;

std::vector<hw::Word> write_payload(std::uint64_t tag, unsigned lanes) {
  std::vector<hw::Word> p(lanes);
  for (unsigned l = 0; l < lanes; ++l) {
    p[l] = runtime::derive_seed(kPayloadSalt + tag, l);
  }
  return p;
}

core::PolyMemConfig pm_cfg() {
  core::PolyMemConfig c;
  c.scheme = maf::Scheme::kReRo;
  c.p = 2;
  c.q = 4;
  c.height = 32;
  c.width = 64;
  c.read_ports = 4;
  return c;
}

/// Zipf(s) sampler over ranks [0, n): rank r drawn with probability
/// proportional to 1/(r+1)^s, by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }
  std::size_t operator()(Rng& rng) const {
    const auto it =
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct TraceEntry {
  access::ParallelAccess where;
  service::Tenant tenant = 0;
  service::Op op = service::Op::kRead;
};

struct Trace {
  std::vector<TraceEntry> entries;
  /// Per-client [begin, end) into entries; clients submit their chunk
  /// in order, so per-port FIFO keeps each burst contiguous.
  std::vector<std::pair<std::size_t, std::size_t>> client_ranges;
  unsigned lanes = 0;  ///< payload width for write requests

  std::size_t reads() const {
    std::size_t n = 0;
    for (const auto& e : entries) n += e.op == service::Op::kRead;
    return n;
  }
  std::size_t writes() const { return entries.size() - reads(); }
};

/// Direct-mode trace: Zipf-popular column anchors, bursts walking
/// kBurstMin..kBurstMax consecutive rows (stride {1,0} — coalescible).
/// Read bursts draw from the shared top half of the space; write bursts
/// land in the client's private band of the bottom half, so reads stay
/// serial-oracle-checkable and the final image is order-independent
/// across clients.
Trace make_direct_trace(const core::PolyMemConfig& cfg, unsigned clients,
                        std::size_t per_client, std::uint64_t seed) {
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  const Zipf zipf(static_cast<std::size_t>(cfg.width / lanes), kZipfSkew);
  const std::int64_t read_rows = cfg.height / 2;
  const std::int64_t band = (cfg.height - read_rows) / clients;
  Trace t;
  t.lanes = cfg.lanes();
  t.entries.reserve(clients * per_client);
  for (unsigned c = 0; c < clients; ++c) {
    Rng rng(runtime::derive_seed(seed, c));
    const std::size_t begin = t.entries.size();
    std::size_t quota = per_client;
    while (quota > 0) {
      const bool is_write = band > 0 && rng.uniform01() < kWriteFraction;
      const std::int64_t j0 = static_cast<std::int64_t>(zipf(rng)) * lanes;
      std::int64_t len = 0, i0 = 0;
      if (is_write) {
        len = std::min<std::int64_t>(static_cast<std::int64_t>(quota),
                                     rng.uniform(1, band));
        i0 = read_rows + c * band + rng.uniform(0, band - len);
      } else {
        len = std::min<std::int64_t>(
            static_cast<std::int64_t>(quota),
            rng.uniform(kBurstMin, std::min(kBurstMax, read_rows)));
        i0 = rng.uniform(0, read_rows - len);
      }
      const auto op = is_write ? service::Op::kWrite : service::Op::kRead;
      for (std::int64_t r = 0; r < len; ++r) {
        t.entries.push_back(
            {{access::PatternKind::kRow, {i0 + r, j0}}, c, op});
      }
      quota -= static_cast<std::size_t>(len);
    }
    t.client_ranges.emplace_back(begin, t.entries.size());
  }
  return t;
}

/// Sharded-mode trace in matrix coordinates: Zipf-popular tiles, bursts
/// confined to the anchor tile (the engine's coalescing unit). Reads
/// draw from the top half of the tile grid; each tenant's writes go to
/// one private tile in the bottom half.
Trace make_tiled_trace(std::int64_t rows, std::int64_t cols,
                       std::int64_t tile_rows, std::int64_t tile_cols,
                       std::int64_t lanes, unsigned clients,
                       std::size_t per_client, std::uint64_t seed) {
  const std::int64_t tiles_i = rows / tile_rows;
  const std::int64_t tiles_j = cols / tile_cols;
  const std::int64_t read_tiles_i = tiles_i / 2;
  const std::int64_t write_tiles =
      (tiles_i - read_tiles_i) * tiles_j;  // bottom half, tenant-private
  const Zipf zipf(static_cast<std::size_t>(read_tiles_i * tiles_j),
                  kZipfSkew);
  Trace t;
  t.lanes = static_cast<unsigned>(lanes);
  t.entries.reserve(clients * per_client);
  for (unsigned c = 0; c < clients; ++c) {
    Rng rng(runtime::derive_seed(seed, c));
    const std::size_t begin = t.entries.size();
    std::size_t quota = per_client;
    while (quota > 0) {
      const bool is_write =
          write_tiles >= clients && rng.uniform01() < kWriteFraction;
      std::int64_t ti = 0, tj = 0;
      if (is_write) {
        const std::int64_t mine = c % write_tiles;
        ti = read_tiles_i + mine / tiles_j;
        tj = mine % tiles_j;
      } else {
        const auto tile = static_cast<std::int64_t>(zipf(rng));
        ti = tile / tiles_j;
        tj = tile % tiles_j;
      }
      const auto len = std::min<std::int64_t>(
          static_cast<std::int64_t>(quota),
          rng.uniform(std::min<std::int64_t>(4, tile_rows), tile_rows));
      const std::int64_t i0 =
          ti * tile_rows + rng.uniform(0, tile_rows - len);
      const std::int64_t j0 =
          tj * tile_cols + rng.uniform(0, tile_cols / lanes - 1) * lanes;
      const auto op = is_write ? service::Op::kWrite : service::Op::kRead;
      for (std::int64_t r = 0; r < len; ++r) {
        t.entries.push_back(
            {{access::PatternKind::kRow, {i0 + r, j0}}, c, op});
      }
      quota -= static_cast<std::size_t>(len);
    }
    t.client_ranges.emplace_back(begin, t.entries.size());
  }
  return t;
}

constexpr std::size_t kQueueBound = 4096;
/// Timed passes of the serial baseline and of each saturated drain.
constexpr int kTrials = 5;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void fill_polymem(core::PolyMem& mem, std::uint64_t seed) {
  Rng rng(seed);
  for (std::int64_t i = 0; i < mem.config().height; ++i) {
    for (std::int64_t j = 0; j < mem.config().width; ++j) {
      mem.store({i, j}, static_cast<hw::Word>(rng.bits()));
    }
  }
}

void fill_lmem(maxsim::LMem& lmem, const maxsim::LMemMatrix& m,
               std::vector<hw::Word>* mirror, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<hw::Word> row(static_cast<std::size_t>(m.cols));
  for (std::int64_t i = 0; i < m.rows; ++i) {
    for (auto& w : row) w = rng.bits();
    lmem.write(m.word_addr(i, 0), row);
    if (mirror) mirror->insert(mirror->end(), row.begin(), row.end());
  }
}

/// Copies every completion into slot `tag`: data for the oracle,
/// modeled latency for the percentile summary. Slots are disjoint, so
/// concurrent drain threads (sharded mode) never race.
class SlotListener final : public service::CompletionListener {
 public:
  SlotListener(std::size_t requests, unsigned lanes)
      : lanes_(lanes),
        data_(requests * lanes),
        latency_(requests) {}

  void on_complete(const service::Completion& c) override {
    const auto slot = static_cast<std::size_t>(c.tag);
    latency_[slot] = c.complete_cycle - c.submit_cycle;
    if (c.status != service::Status::kOk) {
      not_ok_.fetch_add(1, std::memory_order_relaxed);
    } else if (c.op == service::Op::kRead) {
      std::copy(c.data.begin(), c.data.end(),
                data_.begin() + static_cast<std::ptrdiff_t>(slot * lanes_));
    }
    completed_.fetch_add(1, std::memory_order_release);
  }

  std::size_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  std::uint64_t not_ok() const {
    return not_ok_.load(std::memory_order_relaxed);
  }
  const std::vector<hw::Word>& data() const { return data_; }
  const std::vector<std::uint64_t>& latency() const { return latency_; }

 private:
  unsigned lanes_;
  std::vector<hw::Word> data_;
  std::vector<std::uint64_t> latency_;
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::uint64_t> not_ok_{0};
};

struct SerialRun {
  double wall_s = 0;
  std::vector<hw::Word> data;  ///< the oracle's reference results
};

/// The baseline the service must beat: one synchronous read/write per
/// request, in trace order, on one thread, over a fresh memory filled
/// from `fill_seed` (the fill is not timed). Read slots for write entries
/// stay zero on both sides of the oracle.
SerialRun run_serial(const Trace& trace, std::uint64_t fill_seed) {
  core::PolyMem mem(pm_cfg());
  fill_polymem(mem, fill_seed);
  const unsigned lanes = mem.lanes();
  SerialRun r;
  r.data.resize(trace.entries.size() * lanes);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < trace.entries.size(); ++k) {
    const auto& e = trace.entries[k];
    if (e.op == service::Op::kWrite) {
      mem.write(e.where, write_payload(k, lanes));
    } else {
      mem.read_into(e.where, 0,
                    std::span<hw::Word>(r.data).subspan(k * lanes, lanes));
    }
  }
  r.wall_s = seconds_since(t0);
  return r;
}

/// Host image of the matrix after the trace's writes: the fill replayed
/// into an array, then every write applied in trace order. Write
/// regions are client-private and payloads are tag-derived, so whatever
/// cross-client interleave an engine picks converges to this image.
std::vector<hw::Word> expected_image(std::int64_t rows, std::int64_t cols,
                                     const Trace& trace, std::uint64_t seed,
                                     const std::vector<hw::Word>* fill) {
  std::vector<hw::Word> img;
  if (fill) {
    img = *fill;
  } else {
    img.resize(static_cast<std::size_t>(rows * cols));
    Rng rng(seed);
    for (auto& w : img) w = rng.bits();
  }
  for (std::size_t k = 0; k < trace.entries.size(); ++k) {
    const auto& e = trace.entries[k];
    if (e.op != service::Op::kWrite) continue;
    const auto payload = write_payload(k, trace.lanes);
    const auto base =
        static_cast<std::size_t>(e.where.anchor.i * cols + e.where.anchor.j);
    std::copy(payload.begin(), payload.end(),
              img.begin() + static_cast<std::ptrdiff_t>(base));
  }
  return img;
}

bool image_matches(const core::PolyMem& mem,
                   const std::vector<hw::Word>& img) {
  const auto& c = mem.config();
  for (std::int64_t i = 0; i < c.height; ++i) {
    for (std::int64_t j = 0; j < c.width; ++j) {
      if (mem.load({i, j}) != img[static_cast<std::size_t>(i * c.width + j)])
        return false;
    }
  }
  return true;
}

/// The saturated-drain phase: only the pump is timed, so drain_s is
/// pure service time regardless of how many cores the host has.
struct SatResult {
  double drain_s = 0;
  service::EngineStats stats;
  bool verified = true;
};

struct LoadResult {
  double wall_s = 0;
  service::EngineStats stats;
  Reservoir::Summary latency;  ///< modeled cycles, submit -> complete
  std::uint64_t retries = 0;   ///< kOverloaded submissions retried
  bool verified = true;
  SatResult sat;  ///< the same trace through kTrials saturated drains
  std::size_t trace_reads = 0;   ///< run_sharded only (private trace)
  std::size_t trace_writes = 0;
};

service::Request make_request(const Trace& trace, std::size_t k,
                              service::CompletionListener& listener) {
  service::Request req;
  req.tenant = trace.entries[k].tenant;
  req.op = trace.entries[k].op;
  req.where = trace.entries[k].where;
  req.tag = k;
  if (req.op == service::Op::kWrite) {
    req.payload = write_payload(k, trace.lanes);
  }
  req.listener = &listener;
  return req;
}

/// Closed-loop clients: each thread submits its trace chunk in order,
/// spinning (yield) on kOverloaded — typed shedding, the client's
/// backpressure signal. `submit` maps (entry, tag) to a Status.
template <typename SubmitFn>
void drive_clients(const Trace& trace, SlotListener& listener,
                   std::atomic<std::uint64_t>& retries,
                   std::atomic<std::uint64_t>& failures, SubmitFn submit) {
  std::vector<std::thread> clients;
  clients.reserve(trace.client_ranges.size());
  for (std::size_t c = 0; c < trace.client_ranges.size(); ++c) {
    clients.emplace_back([&, c] {
      const auto [begin, end] = trace.client_ranges[c];
      std::uint64_t my_retries = 0;
      for (std::size_t k = begin; k < end; ++k) {
        service::Request req = make_request(trace, k, listener);
        service::Status s;
        while ((s = submit(c, k, std::move(req))) ==
               service::Status::kOverloaded) {
          // Back off with a real sleep, not a yield: on small hosts the
          // submitters and the drain share cores, and a yield carousel
          // starves the drain of exactly the time it needs to make room.
          ++my_retries;
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        if (s != service::Status::kAccepted)
          failures.fetch_add(1, std::memory_order_relaxed);
      }
      retries.fetch_add(my_retries, std::memory_order_relaxed);
    });
  }
  for (auto& t : clients) t.join();
}

/// Queues the whole trace wave by wave (each client submits until its
/// queue sheds, preserving per-client FIFO order), pumping `drain`
/// between waves; only the pump time accumulates into `sat.drain_s`.
/// `submit` maps (client, tag) to a Status; `drain` pumps to
/// quiescence.
template <typename SubmitFn, typename DrainFn>
void drive_saturated(const Trace& trace, SlotListener& listener,
                     SatResult& sat, SubmitFn submit, DrainFn drain) {
  std::vector<std::size_t> cursor(trace.client_ranges.size());
  for (std::size_t c = 0; c < cursor.size(); ++c)
    cursor[c] = trace.client_ranges[c].first;
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (std::size_t c = 0; c < cursor.size(); ++c) {
      const std::size_t end = trace.client_ranges[c].second;
      while (cursor[c] < end) {
        const service::Status s =
            submit(c, make_request(trace, cursor[c], listener));
        if (s == service::Status::kOverloaded) break;  // wave full: pump
        if (s != service::Status::kAccepted) {
          sat.verified = false;
          return;
        }
        ++cursor[c];
      }
      if (cursor[c] < end) all_done = false;
    }
    const auto t0 = std::chrono::steady_clock::now();
    drain();
    sat.drain_s += seconds_since(t0);
  }
}

/// kTrials saturated-drain passes, each from fresh state (`pass` builds
/// its own memory or service, drains the trace and verifies it): the
/// median drain time, the last pass's stats, verified only if every pass
/// was.
template <typename PassFn>
SatResult saturated_trials(PassFn pass) {
  SatResult agg;
  std::vector<double> drains;
  for (int t = 0; t < kTrials; ++t) {
    const SatResult one = pass();
    drains.push_back(one.drain_s);
    agg.stats = one.stats;
    agg.verified = agg.verified && one.verified;
  }
  agg.drain_s = bench::median(std::move(drains));
  return agg;
}

Reservoir::Summary summarize_latency(const std::vector<std::uint64_t>& lat) {
  Reservoir res(4096, /*seed=*/11);
  for (const auto v : lat) res.add(static_cast<double>(v));
  return res.summary();
}

/// One direct-mode engine run over `trace`; completed reads verified
/// against the serial replay, the end-state matrix against the host
/// write image.
LoadResult run_engine(const Trace& trace, unsigned ports,
                      const std::vector<hw::Word>& reference,
                      const std::vector<hw::Word>& final_image,
                      std::uint64_t fill_seed) {
  core::PolyMem mem(pm_cfg());
  fill_polymem(mem, fill_seed);
  service::EngineOptions opt;
  opt.ports = ports;
  opt.queue_bound = kQueueBound;
  opt.max_coalesce = 64;
  service::ServiceEngine engine(mem, opt);
  runtime::ThreadPool drain(1);
  SlotListener listener(trace.entries.size(), mem.lanes());
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> failures{0};

  engine.start(drain);
  const auto t0 = std::chrono::steady_clock::now();
  drive_clients(trace, listener, retries, failures,
                [&](std::size_t client, std::size_t, service::Request&& req) {
                  const auto port = static_cast<unsigned>(client) % ports;
                  return engine.submit(port, std::move(req));
                });
  const std::size_t expected = trace.entries.size() - failures.load();
  while (listener.completed() < expected)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  LoadResult r;
  r.wall_s = seconds_since(t0);
  engine.stop();
  r.stats = engine.stats();
  r.latency = summarize_latency(listener.latency());
  r.retries = retries.load();
  r.verified = failures.load() == 0 && listener.not_ok() == 0 &&
               listener.data() == reference && image_matches(mem, final_image);

  // Saturated-drain passes: each a fresh engine (manual pumps, never
  // started) over a fresh memory, fed the same trace.
  r.sat = saturated_trials([&] {
    core::PolyMem sat_mem(pm_cfg());
    fill_polymem(sat_mem, fill_seed);
    service::ServiceEngine sat_engine(sat_mem, opt);
    SlotListener sat_listener(trace.entries.size(), sat_mem.lanes());
    SatResult sat;
    drive_saturated(
        trace, sat_listener, sat,
        [&](std::size_t client, service::Request&& req) {
          const auto port = static_cast<unsigned>(client) % ports;
          return sat_engine.submit(port, std::move(req));
        },
        [&] { sat_engine.run_until_idle(); });
    sat.stats = sat_engine.stats();
    sat.verified = sat.verified && sat_listener.not_ok() == 0 &&
                   sat_listener.completed() == trace.entries.size() &&
                   sat_listener.data() == reference &&
                   image_matches(sat_mem, final_image);
    return sat;
  });
  return r;
}

bool lmem_matches(maxsim::LMem& lmem, const maxsim::LMemMatrix& m,
                  const std::vector<hw::Word>& mirror) {
  std::vector<hw::Word> row(static_cast<std::size_t>(m.cols));
  for (std::int64_t i = 0; i < m.rows; ++i) {
    lmem.read(m.word_addr(i, 0), row);
    if (!std::equal(row.begin(), row.end(),
                    mirror.begin() + static_cast<std::ptrdiff_t>(i * m.cols)))
      return false;
  }
  return true;
}

bool verify_against_mirror(const SlotListener& listener, const Trace& trace,
                           const std::vector<hw::Word>& mirror,
                           std::int64_t cols, std::int64_t lanes) {
  for (std::size_t k = 0; k < trace.entries.size(); ++k) {
    if (trace.entries[k].op != service::Op::kRead) continue;
    const auto anchor = trace.entries[k].where.anchor;
    for (std::int64_t l = 0; l < lanes; ++l) {
      const auto got =
          listener.data()[k * static_cast<std::size_t>(lanes) +
                          static_cast<std::size_t>(l)];
      const auto want =
          mirror[static_cast<std::size_t>(anchor.i * cols + anchor.j + l)];
      if (got != want) return false;
    }
  }
  return true;
}

/// The multi-tenant config: `shards` PolyMem+TileCache+drain instances
/// over one LMem-resident matrix, verified against the host mirror.
LoadResult run_sharded(const maxsim::LMemMatrix& shape, unsigned shards,
                       unsigned ports, unsigned clients,
                       std::size_t per_client, std::uint64_t seed) {
  maxsim::LMem lmem(64u << 20);
  std::vector<hw::Word> mirror;
  mirror.reserve(static_cast<std::size_t>(shape.rows * shape.cols));
  fill_lmem(lmem, shape, &mirror, seed);

  service::ShardedOptions sopt;
  sopt.shards = shards;
  sopt.engine.ports = ports;
  sopt.engine.queue_bound = kQueueBound;
  sopt.engine.max_coalesce = 64;
  sopt.shard_config = pm_cfg();
  service::ShardedService svc(lmem, shape, sopt);

  const auto lanes = static_cast<std::int64_t>(sopt.shard_config.lanes());
  const Trace trace =
      make_tiled_trace(shape.rows, shape.cols, svc.tile_rows(),
                       svc.tile_cols(), lanes, clients, per_client, seed + 1);
  // Fold the trace's writes into the mirror: reads never touch the
  // write tiles, so one image serves both the read oracle and the
  // end-state LMem check.
  mirror = expected_image(shape.rows, shape.cols, trace, seed, &mirror);
  runtime::ThreadPool pool(shards);
  SlotListener listener(trace.entries.size(),
                        static_cast<unsigned>(lanes));
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> failures{0};

  svc.start(pool);
  const auto t0 = std::chrono::steady_clock::now();
  drive_clients(trace, listener, retries, failures,
                [&](std::size_t, std::size_t, service::Request&& req) {
                  return svc.submit(std::move(req));
                });
  const std::size_t expected = trace.entries.size() - failures.load();
  while (listener.completed() < expected)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  LoadResult r;
  r.wall_s = seconds_since(t0);
  svc.stop();
  svc.flush();  // publish dirty write tiles so the LMem check sees them
  r.stats = svc.stats();
  r.latency = summarize_latency(listener.latency());
  r.retries = retries.load();
  r.trace_reads = trace.reads();
  r.trace_writes = trace.writes();
  r.verified = failures.load() == 0 && listener.not_ok() == 0 &&
               verify_against_mirror(listener, trace, mirror, shape.cols,
                                     lanes) &&
               lmem_matches(lmem, shape, mirror);

  // Saturated-drain passes: each a fresh (never-started) service, with
  // fresh shard memories, over the same LMem matrix, every shard pumped
  // from the caller's thread. The trace's writes are tag-derived, so
  // rewriting them keeps the LMem equal to the mirror.
  r.sat = saturated_trials([&] {
    service::ShardedService sat_svc(lmem, shape, sopt);
    SlotListener sat_listener(trace.entries.size(),
                              static_cast<unsigned>(lanes));
    SatResult sat;
    drive_saturated(
        trace, sat_listener, sat,
        [&](std::size_t, service::Request&& req) {
          return sat_svc.submit(std::move(req));
        },
        [&] {
          for (bool any = true; any;) {
            any = false;
            for (unsigned s = 0; s < sat_svc.shards(); ++s)
              while (sat_svc.engine(s).drain_once()) any = true;
          }
        });
    sat.stats = sat_svc.stats();
    sat_svc.flush();
    sat.verified = sat.verified && sat_listener.not_ok() == 0 &&
                   sat_listener.completed() == trace.entries.size() &&
                   verify_against_mirror(sat_listener, trace, mirror,
                                         shape.cols, lanes) &&
                   lmem_matches(lmem, shape, mirror);
    return sat;
  });
  return r;
}

void emit_config(json::Writer& w, const std::string& name,
                 std::size_t requests, unsigned ports, unsigned shards,
                 const LoadResult& r) {
  const double n = static_cast<double>(requests);
  const auto& st = r.stats;
  w.begin_object().field("name", name).field("verified", r.verified);
  w.field("ports", ports).field("shard_count", shards);
  w.field("requests", requests).field("wall_ms", r.wall_s * 1e3);
  w.field("accesses_per_sec", n / r.wall_s);
  w.field("ns_per_access", r.wall_s * 1e9 / n);
  w.begin_object("latency_cycles").field("p50", r.latency.p50);
  w.field("p95", r.latency.p95).field("p99", r.latency.p99);
  w.field("max", r.latency.max).end();
  w.field("mean_run_length", st.mean_run_length());
  w.field("compiled_share",
          st.drained_requests == 0
              ? 0.0
              : static_cast<double>(st.compiled_requests) /
                    static_cast<double>(st.drained_requests));
  w.field("shed", st.shed).field("retries", r.retries);
  w.field("max_queue_depth", st.max_queue_depth);
  w.field("max_in_flight", st.max_in_flight);
  w.field("tile_misses", st.tile_misses).field("modeled_cycles", st.cycles);
  if (r.trace_reads + r.trace_writes > 0) {
    w.field("trace_reads", r.trace_reads);
    w.field("trace_writes", r.trace_writes);
  }
  w.begin_object("saturated_drain").field("verified", r.sat.verified);
  w.field("drain_ms", r.sat.drain_s * 1e3);
  w.field("accesses_per_sec", n / r.sat.drain_s);
  w.field("ns_per_access", r.sat.drain_s * 1e9 / n);
  w.field("mean_run_length", r.sat.stats.mean_run_length());
  w.end().end();
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny")
      tiny = true;
    else
      out_path = arg;
  }

  const auto cfg = pm_cfg();
  const unsigned kClients = 4;
  const std::size_t per_client = tiny ? 2'000 : 100'000;
  const unsigned kTenants = 6;
  const std::size_t per_tenant = tiny ? 1'000 : 30'000;
  constexpr std::uint64_t kSeed = 2026;

  const Trace trace = make_direct_trace(cfg, kClients, per_client, kSeed);
  const std::size_t n = trace.entries.size();

  // Serial baseline: its median pass time is the rate to beat, and its
  // first pass doubles as the differential oracle's reference — for the
  // completed reads and, via the host write image, for the end-state
  // matrix. Every later pass must read the same data.
  const SerialRun serial = run_serial(trace, kSeed);
  std::vector<double> serial_passes{serial.wall_s};
  bool serial_agrees = true;
  for (int t = 1; t < kTrials; ++t) {
    const SerialRun again = run_serial(trace, kSeed);
    serial_passes.push_back(again.wall_s);
    serial_agrees = serial_agrees && again.data == serial.data;
  }
  const double serial_s = bench::median(std::move(serial_passes));
  const std::vector<hw::Word> final_image =
      expected_image(cfg.height, cfg.width, trace, kSeed, nullptr);

  const LoadResult one_port =
      run_engine(trace, 1, serial.data, final_image, kSeed);
  const LoadResult multi_port =
      run_engine(trace, kClients, serial.data, final_image, kSeed);

  const maxsim::LMemMatrix matrix{0, 256, 256, 256};
  const LoadResult sharded =
      run_sharded(matrix, 4, 2, kTenants, per_tenant, kSeed);
  const std::size_t sharded_n = kTenants * per_tenant;

  const double serial_rate = static_cast<double>(n) / serial_s;
  const double multi_rate = static_cast<double>(n) / multi_port.wall_s;
  const double sat_multi_rate =
      static_cast<double>(n) / multi_port.sat.drain_s;

  std::ofstream out(out_path);
  json::Writer w(out);
  w.begin_object().field("benchmark", "polymem_service").field("tiny", tiny);
  w.field("trials", kTrials);
  w.begin_object("geometry").field("scheme", "ReRo").field("p", cfg.p);
  w.field("q", cfg.q).field("height", cfg.height).field("width", cfg.width);
  w.field("lanes", cfg.lanes()).field("read_ports", cfg.read_ports).end();
  w.begin_object("trace").field("requests", n).field("clients", kClients);
  w.field("reads", trace.reads()).field("writes", trace.writes());
  w.field("write_burst_fraction", kWriteFraction);
  w.field("burst_rows",
          std::to_string(kBurstMin) + ".." + std::to_string(kBurstMax));
  w.field("zipf_skew", kZipfSkew).end();
  w.begin_object("serial_baseline").field("requests", n);
  w.field("wall_ms", serial_s * 1e3);
  w.field("accesses_per_sec", serial_rate);
  w.field("ns_per_access", serial_s * 1e9 / static_cast<double>(n));
  w.end().begin_array("configs");
  emit_config(w, "engine_1port", n, 1, 1, one_port);
  emit_config(w, "engine_multiport", n, kClients, 1, multi_port);
  emit_config(w, "sharded_multitenant", sharded_n, 2, 4, sharded);
  w.end();
  w.field("multiport_closed_loop_speedup_vs_serial", multi_rate / serial_rate);
  w.field("multiport_saturated_drain_speedup_vs_serial",
          sat_multi_rate / serial_rate);
  w.end();
  out.close();

  std::cout << std::setprecision(4) << "serial:    " << serial_rate / 1e6
            << " M acc/s\n"
            << "1 port:    "
            << static_cast<double>(n) / one_port.wall_s / 1e6
            << " M acc/s, run length " << one_port.stats.mean_run_length()
            << ", p99 " << one_port.latency.p99 << " cy\n"
            << "multiport: " << multi_rate / 1e6 << " M acc/s, run length "
            << multi_port.stats.mean_run_length() << ", p99 "
            << multi_port.latency.p99 << " cy\n"
            << "multiport saturated drain: " << sat_multi_rate / 1e6
            << " M acc/s (" << sat_multi_rate / serial_rate << "x serial)\n"
            << "sharded:   "
            << static_cast<double>(sharded_n) / sharded.wall_s / 1e6
            << " M acc/s over 4 shards, " << sharded.stats.tile_misses
            << " tile misses, p99 " << sharded.latency.p99 << " cy\n"
            << "wrote " << out_path << "\n";

  if (!serial_agrees || !one_port.verified || !multi_port.verified ||
      !sharded.verified || !one_port.sat.verified ||
      !multi_port.sat.verified || !sharded.sat.verified) {
    std::cerr << "FAIL: completed data diverges from the serial replay\n";
    return 1;
  }
  if (multi_port.stats.mean_run_length() <= 1.0) {
    std::cerr << "FAIL: multi-port drain never coalesced\n";
    return 1;
  }
  if (!tiny && sat_multi_rate <= serial_rate) {
    std::cerr << std::setprecision(4)
              << "FAIL: saturated coalesced multi-port drain ("
              << sat_multi_rate / 1e6
              << " M acc/s) did not beat serial one-call-per-request ("
              << serial_rate / 1e6 << " M acc/s)\n";
    return 1;
  }
  return 0;
}
