// PolyMem — the polymorphic parallel memory (functional model).
//
// This is the library's primary public API. A PolyMem is a 2D-addressed
// memory of height x width elements spread over p x q banks by a
// conflict-free module assignment function; every read() / write() moves
// p*q elements at once, the way one clock cycle of the hardware does.
//
// The functional model serves each access with the hardware semantics of
// paper Fig. 3 — AGU, MAF/addressing, inverse shuffles, banks, read
// shuffle — but without timing. For timed simulation (latency, concurrent
// read+write, multi-port scheduling) use core/cycle_polymem.hpp, which
// layers clocking on top of the same blocks.
//
// One execution engine serves accesses, with one reference beside it
// (docs/ARCHITECTURE.md, "Performance model" and "SIMD execution engine"):
//  - the *compiled* engine: the MAF is periodic per axis, so the bank
//    permutation, base addresses and flat pointer table of an
//    anchor-residue class are computed once, on first touch, into a dense
//    per-pattern table (core/plan_cache.hpp). A single access is one
//    indexed template lookup plus a one-access gather/scatter. Every batch
//    — read_batch/write_batch and the backdoor's load_batch/store_batch —
//    is lowered row by row to one table pointer and one delta per access,
//    then executed by one call of the same two kernels (core/simd/);
//  - the *AGU reference* runs the data path literally per access (support
//    probe, bounds check, per-lane MAF + addressing, three checked
//    shuffles, per-cycle bank port accounting). It reports the exact
//    error for unsupported and out-of-bounds single accesses, serves
//    accesses the plan cache cannot (cache disabled, as on geometries
//    whose MAF periods are not powers of two), and is the differential
//    oracle (set_plan_cache_enabled(false)).
// Both are observably identical (differentially tested).
//
// The host backdoor moves words without port accounting: load/store per
// element, fill_rect/dump_rect per rectangle, and load_batch/store_batch
// per AccessBatch of any pattern kind, including those the scheme does
// not serve. The batch form shares the batch lowering, so an access the
// hardware would serve in p*q cycles costs the host one table gather, not
// p*q MAF and address evaluations.
//
// Threading: one thread at a time runs a PolyMem's engine — every access,
// batch and load_batch/store_batch call, which share the plan cache (the
// batch backdoor fills its slots), the lowering arrays, the scratch
// buffers and the counters. An owner that serves several threads
// serializes them (the service engine's single drain thread). Only the
// host rectangle transfers and load/store may run beside that thread (see
// fill_rect).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "access/pattern.hpp"
#include "core/access_batch.hpp"
#include "core/agu.hpp"
#include "core/banks.hpp"
#include "core/config.hpp"
#include "core/plan_cache.hpp"
#include "core/simd/aligned.hpp"
#include "hw/bram.hpp"
#include "maf/addressing.hpp"
#include "maf/conflict.hpp"
#include "maf/maf.hpp"

namespace polymem::core {

using hw::Word;

class PolyMem {
 public:
  explicit PolyMem(PolyMemConfig config);

  // Internal blocks hold references to each other; pinned in place.
  PolyMem(const PolyMem&) = delete;
  PolyMem& operator=(const PolyMem&) = delete;

  const PolyMemConfig& config() const { return config_; }
  const maf::Maf& maf() const { return maf_; }
  const maf::AddressingFunction& addressing() const { return addressing_; }
  const Agu& agu() const { return agu_; }
  unsigned lanes() const { return config_.lanes(); }

  /// Machine-checked support level of a pattern under this configuration.
  maf::SupportLevel supports(access::PatternKind pattern) const;

  /// Writes lanes() words (canonical order) through the write port. A
  /// single access runs on the compiled kernels through its residue
  /// class's tables; an unsupported, unaligned or out-of-bounds one
  /// throws the AGU's error and changes nothing.
  void write(const access::ParallelAccess& where, std::span<const Word> data);

  /// Reads lanes() words (canonical order) through read port `port`.
  std::vector<Word> read(const access::ParallelAccess& where,
                         unsigned port = 0);
  void read_into(const access::ParallelAccess& where, unsigned port,
                 std::span<Word> out);

  /// Batched access engine: validates the whole batch once (support,
  /// alignment, bounds), then lowers it row by row — one class template
  /// per residue class the row visits, the rest of the row copied with a
  /// constant delta advance — and executes it as one gather on read
  /// replica `port` / one scatter to every replica: no per-access
  /// allocation, re-validation or per-bank call. With the plan cache off
  /// the batch runs access by access through read_into / write (identical
  /// results). Each batch element is its own cycle; results/data are the
  /// concatenation of the per-access canonical lane groups, so
  /// `out`/`data` must hold count() * lanes() words.
  void read_batch(const AccessBatch& batch, unsigned port,
                  std::span<Word> out);
  void write_batch(const AccessBatch& batch, std::span<const Word> data);

  /// True when the compiled engine serves `batch`: the scheme supports
  /// its pattern, with p/q-aligned start and strides for an aligned-only
  /// pattern. Bounds are not checked.
  bool serves(const AccessBatch& batch) const;

  /// Scalar host backdoor (no port accounting; used for Load/Offload and
  /// debugging, like the host filling the memory in the paper's DSE
  /// validation cycle).
  Word load(access::Coord c) const;
  void store(access::Coord c, Word value);

  /// Batch host backdoor: load/store for every element of every access of
  /// `batch`, in canonical lane order, for any pattern kind and anchor
  /// whether or not serves(batch). One corner bounds check per batch (the
  /// InvalidArgument of read_batch, thrown before any word moves), then
  /// read_batch's lowering and kernels; a store writes every read
  /// replica, access by access in batch order, so where accesses overlap
  /// the last one wins. No port accounting and no access counters. Runs
  /// per element through load/store when the plan cache is disabled.
  /// Unlike load/store, an engine-thread call: it fills plan-cache slots.
  /// out/data hold count() * lanes() words.
  void load_batch(const AccessBatch& batch, std::span<Word> out);
  void store_batch(const AccessBatch& batch, std::span<const Word> data);

  /// Bulk host helpers: row-major copy of a rows x cols rectangle at
  /// `origin` from/to a linear buffer, without port accounting. One
  /// region bounds check, then a walk of each row over the MAF's column
  /// period: bank() is evaluated once per column residue, the bank index
  /// and address checks of load()/store() run once per row, and each
  /// residue's words are copied as one strided run through the banks'
  /// base pointers (fill_rect writes every read replica). Both write no
  /// member state and allocate nothing, so they may run concurrently with
  /// each other on disjoint rows (fill_rect), and beside one thread
  /// running the engine on rows nobody fills.
  void fill_rect(access::Coord origin, std::int64_t rows, std::int64_t cols,
                 std::span<const Word> values);
  void dump_rect(access::Coord origin, std::int64_t rows, std::int64_t cols,
                 std::span<Word> values) const;

  /// Access counters (one per served parallel access).
  std::uint64_t parallel_reads() const { return parallel_reads_; }
  std::uint64_t parallel_writes() const { return parallel_writes_; }

  /// Toggles the compiled engine (default on). Off, every access runs on
  /// the AGU reference — the differential-test oracle and benchmark
  /// baseline.
  void set_plan_cache_enabled(bool enabled) { use_plan_cache_ = enabled; }
  /// True when accesses run through the residue-class tables: the plan
  /// cache is switched on and usable on this geometry.
  bool uses_plan_cache() const {
    return use_plan_cache_ && plan_cache_.enabled();
  }
  const PlanCache& plan_cache() const { return plan_cache_; }
  PlanCache& plan_cache() { return plan_cache_; }

 private:
  // AGU-reference scratch sized to lanes(), reused across accesses.
  struct Scratch {
    AccessPlan plan;
    std::vector<std::int64_t> bank_addr;
    std::vector<Word> bank_data;
  };

  /// read_batch's checks: serves(batch) (else Unsupported) for a batch
  /// with accesses, then check_bounds, whose result it returns.
  std::size_t validate_batch(const AccessBatch& batch) const;
  /// Non-negative counts, and every access inside the address space
  /// (InvalidArgument), checked at the anchor grid's corners without
  /// overflow. Returns count() * lanes(), the words the batch moves
  /// (InvalidArgument when that overflows).
  std::size_t check_bounds(const AccessBatch& batch) const;

  /// fill_rect/dump_rect's walk: validates the rectangle against a
  /// `buffer`-word buffer, then calls visit(run) for each column residue
  /// of each row (polymem.cpp's ResidueRun: a bank, a strided address run
  /// in it and the matching strided run of row-major buffer indices).
  template <typename Visit>
  void walk_rect(access::Coord origin, std::int64_t rows, std::int64_t cols,
                 std::size_t buffer, Visit&& visit) const;

  /// The template and per-anchor delta serving `where`, or null when the
  /// access runs on the AGU reference — then `scratch_.plan` holds the
  /// expanded access. Throws the AGU's exact error for an unsupported,
  /// unaligned or out-of-bounds access, before any bank is touched.
  const PlanTemplate* resolve(const access::ParallelAccess& where,
                              std::int64_t& delta);
  /// Executes one resolved access: a count-1 kernel call through `t`'s
  /// tables or, when `t` is null, the AGU reference on `scratch_.plan` —
  /// checked shuffles and ported bank accesses within the current cycle
  /// (the caller begins it).
  void execute_read(const PlanTemplate* t, std::int64_t delta, unsigned port,
                    std::span<Word> out);
  void execute_write(const PlanTemplate* t, std::int64_t delta,
                     std::span<const Word> data);

  /// Lowers the checked `batch` into tables_/deltas_, one gather-table
  /// pointer and delta per access, and returns true; returns false, and
  /// lowers nothing, when !uses_plan_cache().
  bool lower(const AccessBatch& batch);

  PolyMemConfig config_;
  maf::Maf maf_;
  maf::AddressingFunction addressing_;
  Agu agu_;
  BankArray banks_;
  PlanCache plan_cache_;
  bool use_plan_cache_ = true;
  Scratch scratch_;
  // The last lowered batch, per access; resized in place, so a batch no
  // longer than an earlier one allocates nothing.
  simd::AlignedVec<const std::uintptr_t*> tables_;
  simd::AlignedVec<std::int64_t> deltas_;
  std::uint64_t parallel_reads_ = 0;
  std::uint64_t parallel_writes_ = 0;
};

}  // namespace polymem::core
