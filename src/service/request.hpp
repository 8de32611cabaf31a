// PolyMem-as-a-service: request, completion and listener types.
//
// The paper positions PolyMem as a high-bandwidth parallel memory serving
// many concurrent access streams; a production memory serves *requests*,
// not function calls. This module defines the request plane shared by the
// single-memory engine (service/engine.hpp) and the multi-tenant sharded
// router (service/sharded.hpp), modeled on mgsim's ParallelMemory idiom:
// clients submit (tenant, access, payload) tuples into bounded per-port
// queues and registered listeners receive cycle-ordered completions.
//
// Completions are delivered through a listener interface rather than a
// per-request std::function so the hot path allocates nothing for reads:
// a Request is a flat struct, and the Completion's data span aliases
// engine-owned storage that is valid only during the callback.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "access/pattern.hpp"
#include "hw/bram.hpp"

namespace polymem::service {

using hw::Word;

/// Engine-assigned request identity: unique per engine and increasing
/// in each port's FIFO order (the port's claimed queue position x ports
/// + port + 1), not ordered across ports.
using RequestId = std::uint64_t;

/// Client identity: drives port placement (tenants hash to independent
/// ports) and shows up in completions for per-tenant accounting.
using Tenant = std::uint32_t;

enum class Op : std::uint8_t { kRead, kWrite };

/// Submission and completion status. Submission returns kAccepted,
/// kOverloaded (the bounded port queue is full — typed shedding, never
/// blocking, never a silent drop), kRejected (the request can never be
/// served: out of bounds, unsupported pattern, bad payload size) or
/// kShutdown (the engine stopped accepting). Completions carry kOk, or
/// kShutdown for requests still queued when the engine wound down.
enum class Status : std::uint8_t {
  kAccepted,
  kOverloaded,
  kRejected,
  kShutdown,
  kOk,
};

const char* status_name(Status status);

class CompletionListener;

/// One parallel-access request. `where` is in engine coordinates: PolyMem
/// coordinates for a direct engine, matrix coordinates for a sharded /
/// tile-cached engine. `tag` is an opaque client cookie echoed in the
/// completion (slot index, trace position, ...). `listener` receives the
/// completion and must outlive it. Writes move their lanes() payload
/// words into the request; reads leave `payload` empty.
struct Request {
  Tenant tenant = 0;
  Op op = Op::kRead;
  access::ParallelAccess where;
  std::uint64_t tag = 0;
  CompletionListener* listener = nullptr;
  std::vector<Word> payload;
};

/// Delivered to the request's listener exactly once, on the engine's
/// drain thread, in completion-cycle order. `data` (reads only) aliases
/// engine-owned storage and is valid only during the callback — copy it
/// out if it must survive. `sequence` is the engine's execution order
/// (the serial-replay key the differential oracle uses), `submit_cycle` /
/// `complete_cycle` are the modeled clock stamps whose difference is the
/// in-engine latency in cycles.
struct Completion {
  RequestId id = 0;
  std::uint64_t tag = 0;
  Tenant tenant = 0;
  Op op = Op::kRead;
  Status status = Status::kOk;
  std::span<const Word> data;
  std::uint64_t sequence = 0;
  std::uint64_t submit_cycle = 0;
  std::uint64_t complete_cycle = 0;
};

/// Completion sink, registered per request (mgsim's RegisterListener
/// idiom, but carried in the request so one engine can serve callers
/// with different sinks). Callbacks run on the drain thread and must be
/// cheap; re-submitting to the same engine from a callback is allowed
/// (the queues take no lock, and a full queue sheds with kOverloaded
/// rather than waiting for the drain).
class CompletionListener {
 public:
  virtual ~CompletionListener() = default;
  virtual void on_complete(const Completion& completion) = 0;
};

}  // namespace polymem::service
