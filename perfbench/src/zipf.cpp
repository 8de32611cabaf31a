// zipf_service and zipf_direct: one generated Zipf-0.9 row-burst trace
// served two ways.
//
// The trace: kClients clients, each a sequence of bursts of consecutive
// full-row accesses (8-16 rows) at a Zipf-popular lane-aligned column.
// A quarter of the bursts are writes into the client's private row band
// (bottom half of the space); reads draw from the shared top half, which
// is never written, so every read has one right answer whatever the
// interleave: the initial fill. Write payloads are generated with the
// trace. Geometry: ReRo 2x4, 32x64 words, 4 read ports — 16 KiB, L1
// resident, so host time measures the engine rather than DRAM.
//
//  - zipf_service: a service::ServiceEngine with one port per client and a
//    1-worker drain pool; each client thread keeps one burst outstanding
//    (closed loop) and submits the next once its completions arrived.
//    3 clients + 1 drain = 4 threads, each on its own CPU (role_cpu).
//  - zipf_direct: the same trace on one thread, one synchronous
//    PolyMem::read_into / write per request — the serial baseline.
//
// A trial is one pass over the whole trace. Writes are idempotent across
// passes (same payload per request), so the final image after any number
// of passes is the fill with every write applied once, in trace order.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <thread>

#include "common/rng.hpp"
#include "core/polymem.hpp"
#include "runtime/thread_pool.hpp"
#include "service/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace polymem;
using hw::Word;

constexpr double kZipfSkew = 0.9;
constexpr std::int64_t kBurstMin = 8;
constexpr std::int64_t kBurstMax = 16;
constexpr double kWriteFraction = 0.25;
constexpr unsigned kClients = 3;
constexpr std::size_t kPerClient = 6000;
/// Host latency is timed on every kLatencyEvery-th request, so the clock
/// reads do not dominate a ~100 ns access.
constexpr std::size_t kLatencyEvery = 8;

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

/// Zipf(s) over ranks [0, n) by inverse CDF.
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
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Entry {
  access::ParallelAccess where;
  std::uint32_t client = 0;
  bool write = false;
  std::uint32_t payload = 0;  ///< write index into Inputs::payloads
};

struct Burst {
  std::size_t begin = 0, end = 0;
};

struct Inputs {
  std::vector<Entry> entries;
  std::vector<std::vector<Burst>> bursts;  ///< per client, submit order
  std::vector<Word> payloads;              ///< lanes words per write
  std::vector<Word> fill;                  ///< initial image, row-major
  std::vector<Word> final_image;           ///< fill + every write

  std::size_t reads() const {
    std::size_t n = 0;
    for (const Entry& e : entries) n += !e.write;
    return n;
  }
};

Inputs make_inputs(std::uint64_t seed) {
  const core::PolyMemConfig cfg = pm_cfg();
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  const Zipf zipf(static_cast<std::size_t>(cfg.width / lanes), kZipfSkew);
  const std::int64_t read_rows = cfg.height / 2;
  const std::int64_t band = (cfg.height - read_rows) / kClients;

  Inputs in;
  in.entries.reserve(kClients * kPerClient);
  in.bursts.resize(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    Rng rng(runtime::derive_seed(seed, c));
    std::size_t quota = kPerClient;
    while (quota > 0) {
      const bool is_write = rng.uniform01() < kWriteFraction;
      const std::int64_t j0 = static_cast<std::int64_t>(zipf(rng)) * lanes;
      std::int64_t len = 0, i0 = 0;
      if (is_write) {
        len = std::min<std::int64_t>(static_cast<std::int64_t>(quota),
                                     rng.uniform(1, band));
        i0 = read_rows + c * band + rng.uniform(0, band - len);
      } else {
        len = std::min<std::int64_t>(static_cast<std::int64_t>(quota),
                                     rng.uniform(kBurstMin, kBurstMax));
        i0 = rng.uniform(0, read_rows - len);
      }
      Burst b{in.entries.size(), 0};
      for (std::int64_t r = 0; r < len; ++r) {
        Entry e{{access::PatternKind::kRow, {i0 + r, j0}}, c, is_write, 0};
        if (is_write) {
          e.payload = static_cast<std::uint32_t>(in.payloads.size() /
                                                 static_cast<std::size_t>(lanes));
          for (std::int64_t l = 0; l < lanes; ++l) in.payloads.push_back(rng.bits());
        }
        in.entries.push_back(e);
      }
      b.end = in.entries.size();
      in.bursts[c].push_back(b);
      quota -= static_cast<std::size_t>(len);
    }
  }

  Rng fill_rng(runtime::derive_seed(seed, 1000));
  in.fill.resize(static_cast<std::size_t>(cfg.height * cfg.width));
  for (Word& w : in.fill) w = fill_rng.bits();
  in.final_image = in.fill;
  for (const Entry& e : in.entries) {
    if (!e.write) continue;
    std::copy_n(in.payloads.begin() + static_cast<std::ptrdiff_t>(e.payload * lanes),
                lanes,
                in.final_image.begin() +
                    static_cast<std::ptrdiff_t>(e.where.anchor.i * cfg.width +
                                                e.where.anchor.j));
  }
  return in;
}

std::span<const Word> payload_of(const Inputs& in, const Entry& e,
                                  unsigned lanes) {
  return std::span<const Word>(in.payloads).subspan(
      static_cast<std::size_t>(e.payload) * lanes, lanes);
}

/// The read oracle: the expected words of a row read are the fill's,
/// because reads only touch the never-written top half.
struct Oracle {
  std::vector<Word> image;
  std::int64_t width = 0;
  bool matches(const access::ParallelAccess& where,
               std::span<const Word> got) const {
    const Word* want =
        image.data() + where.anchor.i * width + where.anchor.j;
    return std::memcmp(want, got.data(), got.size_bytes()) == 0;
  }
};

Oracle make_oracle(const Inputs& in, bool corrupt) {
  Oracle o{in.fill, pm_cfg().width};
  if (corrupt) {
    // Flip a word the first read of the trace returns.
    for (const Entry& e : in.entries) {
      if (e.write) continue;
      o.image[static_cast<std::size_t>(e.where.anchor.i * o.width +
                                       e.where.anchor.j)] ^= 1;
      break;
    }
  }
  return o;
}

std::uint64_t image_mismatches(const core::PolyMem& mem,
                               const std::vector<Word>& want) {
  const auto& c = mem.config();
  std::vector<Word> got(want.size());
  mem.dump_rect({0, 0}, c.height, c.width, got);
  std::uint64_t bad = 0;
  for (std::size_t k = 0; k < got.size(); ++k) bad += got[k] != want[k];
  return bad;
}

void fill_polymem(core::PolyMem& mem, const Inputs& in) {
  const auto& c = mem.config();
  mem.fill_rect({0, 0}, c.height, c.width, in.fill);
}

// ---- zipf_direct -----------------------------------------------------------

struct DirectPass {
  TrialLatency latency;
  std::uint64_t mismatches = 0;
};

TrialOutcome direct_trial(core::PolyMem& mem, const Inputs& in,
                          const Oracle& oracle, DirectPass& pass,
                          Tracer* tr) {
  const unsigned lanes = mem.lanes();
  std::vector<Word> buf(lanes);
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0; k < in.entries.size(); ++k) {
    const Entry& e = in.entries[k];
    const bool timed = k % kLatencyEvery == 0;
    const std::int64_t ts = timed ? now_ns() : 0;
    if (e.write) {
      Scope s(tr, "core.write", k);
      mem.write(e.where, payload_of(in, e, lanes));
    } else {
      {
        Scope s(tr, "core.read_into", k);
        mem.read_into(e.where, 0, buf);
      }
      pass.mismatches += !oracle.matches(e.where, buf);
    }
    if (timed) pass.latency.add(static_cast<std::uint64_t>(now_ns() - ts));
  }
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  pass.latency.end_trial();
  return {static_cast<double>(in.entries.size() * lanes), secs};
}

// ---- zipf_service ----------------------------------------------------------

/// Completion sink shared by every client: checks each read against the
/// oracle, counts the completion for the client whose burst it belongs
/// to, and records latency — sampled host latency (first submit attempt
/// to completion) in threaded passes, modeled cycles in manual ones. Runs
/// on the drain thread (threaded) or on the pumping thread (manual).
class Listener final : public service::CompletionListener {
 public:
  Listener(const Inputs& in, const Oracle& oracle)
      : in_(&in), oracle_(&oracle), submit_ns_(in.entries.size(), 0) {}

  void on_complete(const service::Completion& c) override {
    Scope s(tracer_, "service.listener", c.tag);
    const Entry& e = in_->entries[c.tag];
    if (c.status != service::Status::kOk) {
      ++failed_;
    } else if (!e.write && !oracle_->matches(e.where, c.data)) {
      ++failed_;
    }
    if (manual_) {
      cycles_.add(c.complete_cycle - c.submit_cycle);
    } else if (c.tag % kLatencyEvery == 0) {
      latency_.add(static_cast<std::uint64_t>(now_ns() - submit_ns_[c.tag]));
    }
    done_[e.client].fetch_add(1, std::memory_order_release);
  }

  /// Written by the submitting client before the submit that publishes
  /// the request (the queue lock orders it before the completion).
  void stamp(std::size_t k, std::int64_t t) { submit_ns_[k] = t; }
  std::atomic<int>& done(unsigned client) { return done_[client]; }
  void reset_done() {
    for (auto& d : done_) d.store(0, std::memory_order_relaxed);
  }
  /// Manual passes run on the pumping thread, optionally traced.
  void set_manual(bool manual, Tracer* tracer) {
    manual_ = manual;
    tracer_ = tracer;
  }

  TrialLatency& latency() { return latency_; }
  const LatencyHist& cycles() const { return cycles_; }
  std::uint64_t failed() const { return failed_; }

 private:
  const Inputs* in_;
  const Oracle* oracle_;
  std::vector<std::int64_t> submit_ns_;
  std::atomic<int> done_[kClients] = {};
  TrialLatency latency_;
  LatencyHist cycles_;
  std::uint64_t failed_ = 0;
  Tracer* tracer_ = nullptr;
  bool manual_ = false;
};

service::EngineOptions engine_options() {
  service::EngineOptions opt;
  opt.ports = kClients;
  opt.queue_bound = 4096;
  opt.max_coalesce = 64;
  return opt;
}

std::vector<service::Request> make_requests(const Inputs& in,
                                            Listener& listener,
                                            unsigned lanes) {
  std::vector<service::Request> reqs(in.entries.size());
  for (std::size_t k = 0; k < in.entries.size(); ++k) {
    const Entry& e = in.entries[k];
    service::Request& r = reqs[k];
    r.tenant = e.client;
    r.op = e.write ? service::Op::kWrite : service::Op::kRead;
    r.where = e.where;
    r.tag = k;
    r.listener = &listener;
    if (e.write) {
      const auto p = payload_of(in, e, lanes);
      r.payload.assign(p.begin(), p.end());
    }
  }
  return reqs;
}

struct ServiceState {
  core::PolyMem* mem = nullptr;
  const Inputs* in = nullptr;
  Listener* listener = nullptr;
  const std::vector<service::Request>* proto = nullptr;
  runtime::ThreadPool* pool = nullptr;
  service::EngineStats stats;  ///< summed over trials
  std::uint64_t submit_failures = 0;
  std::vector<int> cpus;  ///< the CPUs this process may run on
};

/// The CPU of role r (0 = this thread, 1 = the drain, 1 + c = client c):
/// the r-th CPU after this thread's, so that no two roles share a CPU and
/// all of them move on when run_trials moves this thread to its next CPU,
/// the drain visiting every CPU in turn. -1 (placed by the OS) when there
/// are fewer CPUs than threads.
int role_cpu(const std::vector<int>& cpus, unsigned role) {
  if (cpus.size() < kClients + 1) return -1;
  const auto here = std::find(cpus.begin(), cpus.end(), sched_getcpu());
  const auto base =
      here == cpus.end() ? 0 : static_cast<std::size_t>(here - cpus.begin());
  return cpus[(base + role) % cpus.size()];
}

/// One closed-loop pass: fresh requests (copied from the prototypes,
/// untimed), a started engine, kClients closed-loop clients. A client spins
/// (yielding) until its burst completed, as a caller blocked on the reply
/// would; sleeping on a futex instead measures the host's wake-up latency.
TrialOutcome service_trial(ServiceState& st, std::vector<Tracer>* tracers) {
  std::vector<service::Request> reqs = *st.proto;
  st.listener->reset_done();
  service::ServiceEngine engine(*st.mem, engine_options());
  if (const int cpu = role_cpu(st.cpus, 1); cpu >= 0) {
    st.pool->submit([cpu] { pin_to_cpu(cpu); });
    st.pool->wait_idle();
  }
  engine.start(*st.pool);
  std::atomic<std::uint64_t> submit_failures{0};

  const std::int64_t t0 = now_ns();
  const auto client = [&](unsigned c) {
    Tracer* tr = tracers ? &(*tracers)[c] : nullptr;
    std::atomic<int>& done = st.listener->done(c);
    int target = 0;
    for (const Burst& b : st.in->bursts[c]) {
      for (std::size_t k = b.begin; k < b.end; ++k) {
        if (k % kLatencyEvery == 0) st.listener->stamp(k, now_ns());
        for (;;) {
          service::Status s;
          {
            Scope span(tr, "service.submit", k);
            s = engine.submit(c, std::move(reqs[k]));
          }
          if (s == service::Status::kOverloaded) {
            std::this_thread::yield();
            continue;
          }
          if (s == service::Status::kAccepted) {
            ++target;
          } else {
            submit_failures.fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
      }
      while (done.load(std::memory_order_acquire) < target)
        std::this_thread::yield();
    }
  };
  // Client 0 runs on this thread: clients + drain = 4 threads in total.
  {
    std::vector<std::jthread> others;
    for (unsigned c = 1; c < kClients; ++c) {
      others.emplace_back([&client, c, cpu = role_cpu(st.cpus, 1 + c)] {
        if (cpu >= 0) pin_to_cpu(cpu);
        client(c);
      });
    }
    client(0);
  }
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  engine.stop();
  st.listener->latency().end_trial();
  st.stats += engine.stats();
  st.submit_failures += submit_failures.load();
  return {static_cast<double>(st.in->entries.size() * st.mem->lanes()), secs};
}

/// The same closed loop emulated on one thread against the engine's
/// modeled clock: every client keeps one burst outstanding, drain_once is
/// pumped here, and a client submits its next burst as soon as the
/// previous one completed. Deterministic for a seed, so its modeled
/// cycles and latencies are exact. Spans: service.drain_once, with the
/// listener's spans inside.
service::EngineStats manual_closed_loop(ServiceState& st, Tracer* tr) {
  std::vector<service::Request> reqs = *st.proto;
  st.listener->reset_done();
  st.listener->set_manual(true, tr);
  service::ServiceEngine engine(*st.mem, engine_options());
  std::vector<std::size_t> next(kClients, 0);
  std::vector<int> target(kClients, 0);
  const auto submit_next_burst = [&](unsigned c) {
    const Burst& b = st.in->bursts[c][next[c]++];
    for (std::size_t k = b.begin; k < b.end; ++k) {
      if (engine.submit(c, std::move(reqs[k])) == service::Status::kAccepted)
        ++target[c];
      else
        ++st.submit_failures;  // a port holds at most one burst: never full
    }
  };
  for (bool busy = true; busy;) {
    busy = false;
    for (unsigned c = 0; c < kClients; ++c) {
      if (next[c] < st.in->bursts[c].size() &&
          st.listener->done(c).load(std::memory_order_relaxed) >= target[c]) {
        submit_next_burst(c);
        busy = true;
      }
    }
    Scope span(tr, "service.drain_once");
    busy = engine.drain_once() || busy;
  }
  st.listener->set_manual(false, nullptr);
  return engine.stats();
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

std::string zipf_input_bytes(std::uint64_t seed) {
  const Inputs in = make_inputs(seed);
  std::string out;
  auto put = [&out](const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  for (const Entry& e : in.entries) {
    put(&e.where.anchor.i, sizeof e.where.anchor.i);
    put(&e.where.anchor.j, sizeof e.where.anchor.j);
    put(&e.client, sizeof e.client);
    put(&e.write, sizeof e.write);
  }
  for (const auto& bs : in.bursts)
    for (const Burst& b : bs) {
      put(&b.begin, sizeof b.begin);
      put(&b.end, sizeof b.end);
    }
  put(in.payloads.data(), in.payloads.size() * sizeof(Word));
  put(in.fill.data(), in.fill.size() * sizeof(Word));
  return out;
}

RunResult run_zipf_direct(const RunConfig& cfg) {
  Inputs in;
  std::unique_ptr<core::PolyMem> mem;
  const auto build = [&] {
    in = make_inputs(cfg.seed);
    mem = std::make_unique<core::PolyMem>(pm_cfg());
    fill_polymem(*mem, in);
  };
  SetupClock setup;
  setup.run(build);
  const Oracle oracle = make_oracle(in, cfg.corrupt_oracle);
  const unsigned lanes = mem->lanes();

  RunResult r;
  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  DirectPass pass;
  const TrialStats ts = run_trials(budget, [&](int) {
    return direct_trial(*mem, in, oracle, pass, nullptr);
  });
  const double rss = peak_rss_mb();
  r.attempted = in.entries.size() * static_cast<std::uint64_t>(ts.trials());
  r.failed = pass.mismatches;

  if (!cfg.trace) {
    // Modeled time of the synchronous loop: one request in flight, so a
    // read waits out the read latency before the next issues.
    const std::uint64_t reads = in.reads();
    const std::uint64_t writes = in.entries.size() - reads;
    const double cycles = static_cast<double>(
        reads * (1 + pm_cfg().read_latency) + writes);
    const double bytes = static_cast<double>(in.entries.size() * lanes * 8);
    EndToEnd e;
    e.words_per_s = ts.rate();
    e.latency_p50_ns = pass.latency.p50();
    e.latency_p99_ns = pass.latency.p99();
    e.modeled_gb_per_s = bytes / (cycles / kClockHz) / 1e9;
    e.peak_rss_mb = rss;
    r.modeled.push_back({"modeled_gb_per_s", e.modeled_gb_per_s, "GB/s"});
    r.failed += image_mismatches(*mem, in.final_image);
    setup.run(build);
    e.setup_s = setup.seconds();
    e.emit(r);
    return r;
  }

  // Traced pass on a fresh memory, so the plan-cache counters describe
  // exactly one pass from cold.
  core::PolyMem traced_mem(pm_cfg());
  fill_polymem(traced_mem, in);
  Tracer tr(0);
  DirectPass tpass;
  core::PlanCache::Stats first{};
  const TrialStats tts = run_trials(budget, [&](int k) {
    const TrialOutcome o = direct_trial(traced_mem, in, oracle, tpass, &tr);
    if (k == 0) first = traced_mem.plan_cache().stats();
    return o;
  });
  r.attempted += in.entries.size() * static_cast<std::uint64_t>(tts.trials());
  r.failed += tpass.mismatches + image_mismatches(*mem, in.final_image) +
              image_mismatches(traced_mem, in.final_image);

  LayerMetrics m;
  m.set("core.read_into_ns_p50", tr.agg("core.read_into").hist.percentile(50));
  m.set("core.read_into_ns_p99", tr.agg("core.read_into").hist.percentile(99));
  m.set("core.write_ns_p50", tr.agg("core.write").hist.percentile(50));
  m.set("core.write_ns_p99", tr.agg("core.write").hist.percentile(99));
  m.set("core.plan_hits", static_cast<double>(first.hits));
  m.set("core.plan_builds", static_cast<double>(first.builds));
  m.set("trace_overhead_frac", trace_overhead(ts.rate(), tts.rate()));
  m.emit(r, {"core.plan_hits", "core.plan_builds"});
  write_spans(cfg, {&tr});
  return r;
}

RunResult run_zipf_service(const RunConfig& cfg) {
  Inputs in;
  std::unique_ptr<core::PolyMem> mem;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<Listener> listener;
  std::vector<service::Request> proto;
  const auto build = [&] {
    in = make_inputs(cfg.seed);
    mem = std::make_unique<core::PolyMem>(pm_cfg());
    fill_polymem(*mem, in);
    oracle = std::make_unique<Oracle>(make_oracle(in, cfg.corrupt_oracle));
    listener = std::make_unique<Listener>(in, *oracle);
    proto = make_requests(in, *listener, mem->lanes());
  };
  SetupClock setup;
  setup.run(build);
  const unsigned lanes = mem->lanes();
  runtime::ThreadPool pool(1);
  ServiceState st{mem.get(), &in, listener.get(), &proto, &pool, {}, 0,
                  allowed_cpus()};

  RunResult r;
  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const TrialStats ts =
      run_trials(budget, [&](int) { return service_trial(st, nullptr); });
  const double rss = peak_rss_mb();
  r.attempted = in.entries.size() * static_cast<std::uint64_t>(ts.trials());

  // Modeled: the emulated closed loop on the engine's clock (one access
  // per cycle, plus the read-latency gaps while every client waits).
  const double pass_bytes = static_cast<double>(in.entries.size() * lanes * 8);
  Tracer drain_tr(0);
  const service::EngineStats modeled =
      manual_closed_loop(st, cfg.trace ? &drain_tr : nullptr);
  r.attempted += in.entries.size();
  const double modeled_gb_per_s =
      pass_bytes / (static_cast<double>(modeled.cycles) / kClockHz) / 1e9;

  if (!cfg.trace) {
    r.failed = listener->failed() + st.submit_failures +
               image_mismatches(*mem, in.final_image);
    EndToEnd e;
    e.words_per_s = ts.rate();
    e.latency_p50_ns = listener->latency().p50();
    e.latency_p99_ns = listener->latency().p99();
    e.modeled_gb_per_s = modeled_gb_per_s;
    e.peak_rss_mb = rss;
    r.modeled.push_back({"modeled_gb_per_s", modeled_gb_per_s, "GB/s"});
    setup.run(build);
    e.setup_s = setup.seconds();
    e.emit(r);
    return r;
  }

  // Traced closed loop: submit spans per client thread.
  std::vector<Tracer> tracers;
  for (unsigned c = 0; c < kClients; ++c) tracers.emplace_back(c + 1);
  st.stats = {};
  const TrialStats tts =
      run_trials(budget, [&](int) { return service_trial(st, &tracers); });
  r.attempted += in.entries.size() * static_cast<std::uint64_t>(tts.trials());
  const service::EngineStats closed = st.stats;
  r.failed = listener->failed() + st.submit_failures +
             image_mismatches(*mem, in.final_image);

  Tracer all(0);
  for (const Tracer& t : tracers) all.merge(t);
  // Drain cost per request from the manual pumps, listener excluded.
  const double listener_ns = drain_tr.agg("service.listener").total_ns;
  const double drain_ns = drain_tr.agg("service.drain_once").total_ns;
  const auto n = static_cast<double>(in.entries.size());

  LayerMetrics m;
  m.set("service.submit_ns_p50", all.agg("service.submit").hist.percentile(50));
  m.set("service.submit_ns_p99", all.agg("service.submit").hist.percentile(99));
  m.set("service.shed_frac",
        ratio(static_cast<double>(closed.shed),
              static_cast<double>(closed.shed + closed.accepted)));
  m.set("service.max_queue_depth", static_cast<double>(closed.max_queue_depth));
  m.set("service.max_in_flight", static_cast<double>(closed.max_in_flight));
  m.set("service.modeled_latency_p99_cycles",
        listener->cycles().percentile(99));
  m.set("service.run_length", closed.mean_run_length());
  m.set("service.compiled_share",
        ratio(static_cast<double>(closed.compiled_requests),
              static_cast<double>(closed.drained_requests)));
  m.set("service.fallback_accesses",
        static_cast<double>(closed.fallback_accesses) / tts.trials());
  m.set("service.drain_ns_per_req", (drain_ns - listener_ns) / n);
  m.set("service.listener_ns_per_req", listener_ns / n);
  m.set("trace_overhead_frac", trace_overhead(ts.rate(), tts.rate()));
  m.emit(r, {"service.modeled_latency_p99_cycles"});
  r.modeled.push_back({"modeled_gb_per_s", modeled_gb_per_s, "GB/s"});
  std::vector<const Tracer*> out{&drain_tr};
  for (const Tracer& t : tracers) out.push_back(&t);
  write_spans(cfg, out);
  return r;
}

}  // namespace perfbench
