// Seeded operation generator for the three workloads.
//
// The program under test only ever sees the generated ops. Every workload
// fixes how many ops of each kind one round holds (and the multiset of
// sizes); the seed chooses only their order and their data, so per-op
// metrics do not depend on which seed is drawn.

#ifndef PERFBENCH_PB_OPS_H_
#define PERFBENCH_PB_OPS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// The system calls the benchmark issues (one op = one call).
enum class Call : uint8_t {
  kNull,
  kGetPid,
  kGetTime,
  kYield,
  kCreate,
  kWrite,
  kSeek,
  kRead,
  kClose,
  kUnlink,
  kSend,
  kRecv,
  kCount,
};
inline constexpr size_t kCallCount = static_cast<size_t>(Call::kCount);
const char* CallName(Call call);

struct Op {
  Call call = Call::kNull;
  uint8_t slot = 0;  // file slot (file ops)
  uint32_t size = 0; // bytes written/read/sent
  uint32_t tag = 0;  // selects the data pattern (file lifecycle / datagram index)
};

enum class Workload : uint8_t { kCtl, kIo, kBoot };
bool ParseWorkload(const std::string& name, Workload& out);
const char* WorkloadName(Workload workload);

// Concurrent file slots in an io round.
inline constexpr uint8_t kFileSlots = 4;
// The wire stream an io round receives: fixed size and simulated-clock
// interval (open loop on the simulated clock).
inline constexpr uint32_t kRecvPayload = 1024;
inline constexpr uint64_t kRecvIntervalUs = 200;
inline constexpr uint16_t kRecvPort = 40;
inline constexpr uint16_t kSendPort = 80;
// Null syscalls in one boot lifecycle seed.
inline constexpr uint32_t kBootNulls = 16;
inline constexpr uint32_t kBootFileBytes = 4096;

// One round of a workload: the op sequence the timed phase repeats.
struct Round {
  std::vector<Op> ops;
  uint32_t recvs = 0;  // datagrams the round's wire stream injects
  uint32_t key = 0;    // seed-derived salt for data patterns
  uint64_t digest = 0; // FNV-1a over the op sequence and key
};

Round MakeRound(Workload workload, uint64_t seed);

// The byte at `i` of the data a file lifecycle (or sent datagram) carries.
inline uint8_t DataByte(uint32_t key, uint32_t tag, uint32_t i) {
  return static_cast<uint8_t>((key * 31u + tag * 7u + i * 13u + (i >> 8)) & 0xffu);
}

}  // namespace perfbench

#endif  // PERFBENCH_PB_OPS_H_
