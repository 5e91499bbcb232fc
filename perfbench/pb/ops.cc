#include "pb/ops.h"

#include <algorithm>
#include <array>

namespace perfbench {

namespace {

// splitmix64: a fixed, portable generator (std::shuffle and the standard
// distributions are implementation-defined, so seeds would not replay
// across standard libraries).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); the modulo bias is irrelevant at these n.
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(static_cast<uint32_t>(i))]);
  }
}

// ctl: the device-free syscall mix.
constexpr uint32_t kCtlPerCall = 1024;

// io: sizes straddle the 4 KiB page. MiniFS files hold at most 16 direct
// blocks of 512 B, so 8 KiB is the largest file; datagrams stay under the
// 1514 B MTU.
constexpr std::array<uint32_t, 8> kFileSizes = {512, 1024, 2048, 3584, 4096, 4608, 6144, 8192};
constexpr uint32_t kFilesPerSize = 2;
constexpr std::array<uint32_t, 8> kSendSizes = {64, 128, 256, 512, 768, 1024, 1280, 1460};
constexpr uint32_t kSendsPerSize = 4;
constexpr uint32_t kRecvsPerRound = 32;

// The steps of one file's lifecycle, in order.
constexpr std::array<Call, 6> kFileSteps = {Call::kCreate, Call::kWrite, Call::kSeek,
                                            Call::kRead,   Call::kClose, Call::kUnlink};

void MakeCtl(Round& round, Rng& rng) {
  for (Call call : {Call::kNull, Call::kGetPid, Call::kGetTime, Call::kYield}) {
    for (uint32_t i = 0; i < kCtlPerCall; ++i) {
      round.ops.push_back(Op{call, 0, 0, 0});
    }
  }
  Shuffle(round.ops, rng);
}

void MakeIo(Round& round, Rng& rng) {
  std::vector<uint32_t> file_sizes;
  for (uint32_t size : kFileSizes) {
    file_sizes.insert(file_sizes.end(), kFilesPerSize, size);
  }
  std::vector<uint32_t> send_sizes;
  for (uint32_t size : kSendSizes) {
    send_sizes.insert(send_sizes.end(), kSendsPerSize, size);
  }
  Shuffle(file_sizes, rng);
  Shuffle(send_sizes, rng);

  struct Slot {
    bool active = false;
    uint32_t step = 0;
    uint32_t size = 0;
    uint32_t tag = 0;
  };
  std::array<Slot, kFileSlots> slots{};
  size_t next_file = 0;
  size_t next_send = 0;
  uint32_t recvs_left = kRecvsPerRound;
  // Each step draws uniformly among the moves still possible: start a file
  // in a free slot, advance an open file, send, or receive. Reads and writes
  // of different files therefore interleave with each other and with the
  // datagram traffic.
  for (;;) {
    std::vector<int> moves;  // slot index, or -1 send, -2 recv, -3 start
    for (int s = 0; s < kFileSlots; ++s) {
      if (slots[s].active) {
        moves.push_back(s);
      }
    }
    const bool free_slot =
        std::any_of(slots.begin(), slots.end(), [](const Slot& s) { return !s.active; });
    if (next_file < file_sizes.size() && free_slot) {
      moves.push_back(-3);
    }
    if (next_send < send_sizes.size()) {
      moves.push_back(-1);
    }
    if (recvs_left > 0) {
      moves.push_back(-2);
    }
    if (moves.empty()) {
      break;
    }
    const int move = moves[rng.Below(static_cast<uint32_t>(moves.size()))];
    if (move == -1) {
      round.ops.push_back(Op{Call::kSend, 0, send_sizes[next_send],
                             static_cast<uint32_t>(next_send)});
      ++next_send;
    } else if (move == -2) {
      round.ops.push_back(Op{Call::kRecv, 0, kRecvPayload, 0});
      --recvs_left;
      ++round.recvs;
    } else {
      int s = move;
      if (move == -3) {
        s = static_cast<int>(std::find_if(slots.begin(), slots.end(),
                                          [](const Slot& sl) { return !sl.active; }) -
                             slots.begin());
        slots[s] = Slot{true, 0, file_sizes[next_file], static_cast<uint32_t>(next_file)};
        ++next_file;
      }
      Slot& slot = slots[s];
      round.ops.push_back(
          Op{kFileSteps[slot.step], static_cast<uint8_t>(s), slot.size, slot.tag});
      if (++slot.step == kFileSteps.size()) {
        slot.active = false;
      }
    }
  }
}

void MakeBoot(Round& round) {
  for (uint32_t i = 0; i < kBootNulls; ++i) {
    round.ops.push_back(Op{Call::kNull, 0, 0, 0});
  }
  for (Call step : kFileSteps) {
    round.ops.push_back(Op{step, 0, kBootFileBytes, 0});
  }
}

}  // namespace

const char* CallName(Call call) {
  switch (call) {
    case Call::kNull: return "null";
    case Call::kGetPid: return "getpid";
    case Call::kGetTime: return "gettime";
    case Call::kYield: return "yield";
    case Call::kCreate: return "create";
    case Call::kWrite: return "write";
    case Call::kSeek: return "seek";
    case Call::kRead: return "read";
    case Call::kClose: return "close";
    case Call::kUnlink: return "unlink";
    case Call::kSend: return "send";
    case Call::kRecv: return "recv";
    case Call::kCount: break;
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload& out) {
  for (Workload w : {Workload::kCtl, Workload::kIo, Workload::kBoot}) {
    if (name == WorkloadName(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kCtl: return "ctl";
    case Workload::kIo: return "io";
    case Workload::kBoot: return "boot";
  }
  return "?";
}

Round MakeRound(Workload workload, uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + static_cast<uint64_t>(workload) + 1);
  Round round;
  round.key = static_cast<uint32_t>(rng.Next() >> 32);
  switch (workload) {
    case Workload::kCtl: MakeCtl(round, rng); break;
    case Workload::kIo: MakeIo(round, rng); break;
    case Workload::kBoot: MakeBoot(round); break;
  }
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * 0x100000001b3ull;
    }
  };
  mix(round.key);
  for (const Op& op : round.ops) {
    mix(static_cast<uint64_t>(op.call) | uint64_t{op.slot} << 8 | uint64_t{op.size} << 16);
    mix(op.tag);
  }
  round.digest = h;
  return round;
}

}  // namespace perfbench
