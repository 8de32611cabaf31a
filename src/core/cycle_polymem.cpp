#include "core/cycle_polymem.hpp"

#include "common/error.hpp"

namespace polymem::core {

CyclePolyMem::CyclePolyMem(PolyMemConfig config) : mem_(std::move(config)) {
  const unsigned ports = mem_.config().read_ports;
  read_req_.resize(ports);
  completed_.resize(ports);
  read_pipe_.reserve(ports);
  for (unsigned r = 0; r < ports; ++r)
    read_pipe_.emplace_back(mem_.config().read_latency);
}

bool CyclePolyMem::issue_write(const access::ParallelAccess& where,
                               std::span<const Word> data) {
  POLYMEM_REQUIRE(data.size() == mem_.config().lanes(),
                  "write data must provide one word per lane");
  if (write_where_.has_value()) return false;
  write_where_ = where;
  write_data_.assign(data.begin(), data.end());
  return true;
}

bool CyclePolyMem::issue_read(unsigned port, const access::ParallelAccess& where,
                              std::uint64_t tag) {
  POLYMEM_REQUIRE(port < read_req_.size(), "read port out of range");
  if (read_req_[port].has_value()) return false;
  read_req_[port] = PendingRead{where, tag};
  return true;
}

void CyclePolyMem::tick() {
  // Execute this cycle's accesses. Reads happen before the write (BRAM
  // read-first behaviour), so a read that overlaps this cycle's write
  // returns the pre-write data.
  bool any = write_where_.has_value();
  for (unsigned port = 0; port < read_req_.size(); ++port) {
    std::optional<ReadResponse> issued;
    if (read_req_[port].has_value()) {
      any = true;
      ReadResponse resp;
      resp.tag = read_req_[port]->tag;
      resp.data.resize(mem_.config().lanes());
      mem_.read_into(read_req_[port]->where, port, resp.data);
      issued = std::move(resp);
      ++reads_issued_;
      read_req_[port].reset();
    }
    auto out = read_pipe_[port].tick(std::move(issued));
    POLYMEM_ASSERT(!completed_[port].has_value());
    completed_[port] = std::move(out);
  }
  if (write_where_.has_value()) {
    mem_.write(*write_where_, write_data_);
    ++writes_issued_;
    write_where_.reset();
  }
  if (!any) ++idle_cycles_;
  ++cycles_;
}

std::optional<ReadResponse> CyclePolyMem::retire_read(unsigned port) {
  POLYMEM_REQUIRE(port < completed_.size(), "read port out of range");
  std::optional<ReadResponse> out = std::move(completed_[port]);
  completed_[port].reset();
  return out;
}

void CyclePolyMem::drain(unsigned port, std::vector<ReadResponse>& out) {
  POLYMEM_REQUIRE(port < completed_.size(), "read port out of range");
  for (unsigned c = 0; c <= mem_.config().read_latency; ++c) {
    if (auto r = retire_read(port)) out.push_back(std::move(*r));
    tick();
    if (auto r = retire_read(port)) out.push_back(std::move(*r));
  }
}

}  // namespace polymem::core
