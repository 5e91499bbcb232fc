// The architecture/port interface: everything MiniOS needs from whatever it
// runs on.
//
// This is the portability boundary of experiment E6. The microkernel port
// implements it with IPC to user-level servers; the VMM port with
// netfront/blkfront paravirtual drivers; the native port with direct driver
// access. MiniOS itself contains no substrate-specific code.
//
// On the block side the boundary is one primitive, BlockPort::Submit: one
// request of at most max_blocks() blocks, submitted and completed. What
// the three substrates share sits above it in MiniOS's BlockClient
// (src/os/block_client.h): chunking, the blk.read/blk.write request
// origins, and the exactly-once write journal with its replay.

#ifndef UKVM_SRC_OS_ARCH_IF_H_
#define UKVM_SRC_OS_ARCH_IF_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/os/syscall.h"

namespace minios {

class Os;

// A network endpoint: send a packet; receive via an asynchronous handler
// (the port wires it to IPC-delivered packets, netfront upcalls, or the
// bare driver's rx path).
class NetDevice {
 public:
  virtual ~NetDevice() = default;
  using RecvHandler = std::function<void(std::span<const uint8_t> packet)>;

  virtual ukvm::Err Send(std::span<const uint8_t> packet) = 0;
  virtual void SetRecvHandler(RecvHandler handler) = 0;
  virtual uint32_t mtu() const = 0;
};

// A virtual block device (what Parallax serves to its clients; what the
// microkernel's block server serves via IPC), as MiniFS sees it.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint32_t block_size() const = 0;
  virtual uint64_t capacity_blocks() const = 0;
  // Synchronous: the port pumps simulated time until completion.
  virtual ukvm::Err Read(uint64_t lba, uint32_t count, std::span<uint8_t> out) = 0;
  virtual ukvm::Err Write(uint64_t lba, uint32_t count, std::span<const uint8_t> in) = 0;
};

// How a port's request ended.
struct BlockCompletion {
  ukvm::Err status = ukvm::Err::kNone;
  // False when no answer came back (the backend died or fell silent under
  // the request, or never received it): a journaled write then stays in
  // the journal for replay.
  bool answered = true;
};

// One request as a port carries it.
struct BlockRequest {
  bool write = false;
  uint64_t lba = 0;
  uint32_t count = 0;  // blocks, at most the port's max_blocks()
  // Unique per client and monotonic; a port that needs a wire id uses it.
  uint64_t id = 0;
  // A journaled write: the backend may see `id` again in a replay.
  bool journaled = false;
  std::span<const uint8_t> in;  // write payload, count * block_size() bytes
  std::span<uint8_t> out;       // read destination, as large
  // Set by a journal replay only: runs when the backend's answer arrives,
  // before the port releases the request's staging resources, so the
  // replayed request ends at its answer.
  std::function<void(const BlockCompletion&)> on_answer;
};

// The block half of a port.
class BlockPort {
 public:
  virtual ~BlockPort() = default;

  virtual uint32_t block_size() const = 0;
  virtual uint64_t capacity_blocks() const = 0;
  // The largest request one Submit carries (a staging page or window).
  virtual uint32_t max_blocks() const = 0;
  // The domain a request originates in.
  virtual ukvm::DomainId domain() const = 0;
  // The checks a request must pass before it is minted (a channel, a live
  // backend, a free staging page); kNone when Submit may go ahead.
  virtual ukvm::Err Ready() = 0;
  // Submits `req` and waits for its completion. Runs under the request's
  // ambient trace, which the caller minted.
  virtual BlockCompletion Submit(const BlockRequest& req) = 0;
};

class ConsoleDevice {
 public:
  virtual ~ConsoleDevice() = default;
  virtual void Write(std::string_view text) = 0;
};

// The full port: devices plus the system-call entry path.
class ArchPort {
 public:
  virtual ~ArchPort() = default;

  virtual const char* name() const = 0;

  // Routes one application system call into the OS kernel, modelling the
  // substrate's entry path (trap, IPC, or trap-and-reflect), and returns
  // the kernel's result. `os` is the MiniOS instance owning `pid`.
  virtual SyscallRet InvokeSyscall(Os& os, ukvm::ProcessId pid, SyscallReq& req) = 0;

  virtual NetDevice* net() = 0;
  virtual BlockPort* block() = 0;
  virtual ConsoleDevice* console() = 0;
};

}  // namespace minios

#endif  // UKVM_SRC_OS_ARCH_IF_H_
