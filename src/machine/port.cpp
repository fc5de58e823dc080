#include "machine/port.hpp"

#include <cstring>

#include "cache/hierarchy.hpp"
#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "memory/arena.hpp"
#include "net/fabric.hpp"
#include "olb/olb.hpp"

namespace xbgas {

MachinePort::MachinePort(int rank, MemoryArena& local,
                         ObjectLookasideBuffer& olb, CacheHierarchy& cache,
                         NetworkModel& net, std::size_t private_bytes)
    : rank_(rank),
      local_(local),
      olb_(olb),
      cache_(cache),
      net_(net),
      private_bytes_(private_bytes) {}

std::byte* MachinePort::translate(std::uint64_t object_id, std::uint64_t addr,
                                  unsigned width, bool is_store,
                                  std::uint64_t* cycles) {
  XBGAS_CHECK(width == 1 || width == 2 || width == 4 || width == 8,
              "unsupported access width");
  XBGAS_CHECK(addr % width == 0,
              strfmt("misaligned %u-byte access at 0x%llx", width,
                     static_cast<unsigned long long>(addr)));

  if (object_id == kLocalObjectId) {
    (void)olb_.lookup(object_id);  // counts the architectural shortcut
    XBGAS_CHECK(addr + width <= local_.size(),
                strfmt("local access out of bounds: 0x%llx",
                       static_cast<unsigned long long>(addr)));
    *cycles = cache_.access(addr, width);
    return local_.base() + addr;
  }

  const OlbEntry* entry = olb_.lookup(object_id);
  XBGAS_CHECK(entry != nullptr,
              strfmt("OLB miss for object ID %llu",
                     static_cast<unsigned long long>(object_id)));

  // Symmetric addressing: the issuing PE's address, rebased onto the peer's
  // shared segment. Remote access is only legal within the shared segment.
  XBGAS_CHECK(addr >= private_bytes_,
              "remote access targets the private segment");
  const std::uint64_t shared_off = addr - private_bytes_;
  XBGAS_CHECK(shared_off + width <= entry->segment_size,
              "remote access out of bounds of the shared segment");

  *cycles = net_.charge(is_store ? NetOp::kPut : NetOp::kGet, rank_,
                        entry->pe, width);
  return entry->segment_base + shared_off;
}

isa::MemAccessResult MachinePort::load(std::uint64_t object_id,
                                       std::uint64_t addr, unsigned width,
                                       std::uint64_t* value) {
  std::uint64_t cycles = 0;
  const std::byte* p = translate(object_id, addr, width, /*is_store=*/false,
                                 &cycles);
  std::uint64_t raw = 0;
  std::memcpy(&raw, p, width);
  *value = raw;
  return isa::MemAccessResult{.cycles = cycles};
}

isa::MemAccessResult MachinePort::store(std::uint64_t object_id,
                                        std::uint64_t addr, unsigned width,
                                        std::uint64_t value) {
  std::uint64_t cycles = 0;
  std::byte* p =
      translate(object_id, addr, width, /*is_store=*/true, &cycles);
  std::memcpy(p, &value, width);
  return isa::MemAccessResult{.cycles = cycles};
}

}  // namespace xbgas
