#include "src/os/ports/ukernel_port.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/core/log.h"
#include "src/os/kernel.h"
#include "src/os/ports/protocols.h"

namespace minios {

using ukern::IpcMessage;
using ukvm::Err;
using ukvm::ThreadId;

// --- Device adaptors -----------------------------------------------------------

// Block port backed by IPC to the user-level block server. Calls are made
// from the OS server's thread (nested IPC, as L4Linux calls its driver
// servers).
class UkernelPort::IpcBlock : public BlockPort {
 public:
  explicit IpcBlock(UkernelPort& port) : port_(port) {}

  uint32_t block_size() const override {
    FetchInfo();
    return block_size_;
  }
  uint64_t capacity_blocks() const override {
    FetchInfo();
    return capacity_;
  }
  // The block server stages a request in one page, and the string window
  // must hold it too.
  uint32_t max_blocks() const override {
    const uint64_t limit =
        std::min<uint64_t>(port_.w_.srv_window_len, port_.machine_.memory().page_size());
    return std::max<uint32_t>(1, static_cast<uint32_t>(limit / block_size_));
  }
  ukvm::DomainId domain() const override { return port_.machine_.cpu().current_domain(); }
  Err Ready() override { return block_size_ == 0 ? Err::kDead : Err::kNone; }

  BlockCompletion Submit(const BlockRequest& req) override {
    IpcMessage msg;
    if (req.write) {
      port_.PokeWindow(port_.w_.os_thread, port_.w_.srv_window, req.in);
      // Only a journaled write carries its id (regs[3]): the server's
      // recovery log answers a replayed duplicate from the log.
      msg = req.journaled ? IpcMessage::Short(kBlkWriteLabel, req.lba, req.count, req.id)
                          : IpcMessage::Short(kBlkWriteLabel, req.lba, req.count);
      msg.has_string = true;
      msg.string = ukern::StringItem{port_.w_.srv_window, static_cast<uint32_t>(req.in.size())};
    } else {
      msg = IpcMessage::Short(kBlkReadLabel, req.lba, req.count);
    }
    // The kernel's string copies attribute to the ambient request: the
    // server's handler runs synchronously inside Call.
    IpcMessage reply = port_.w_.kernel->Call(port_.w_.os_thread, port_.w_.blk_server, msg);
    // A kernel-level kDead/kBadHandle means the server task was destroyed
    // under the call; any other reply is the server's answer.
    BlockCompletion done{reply.status,
                         reply.status != Err::kDead && reply.status != Err::kBadHandle};
    if (done.status == Err::kNone && static_cast<int64_t>(reply.regs[0]) < 0) {
      done.status = ErrOf(static_cast<SyscallRet>(reply.regs[0]));
    }
    if (done.status == Err::kNone && !req.write) {
      if (reply.string_data.size() < req.out.size()) {
        done.status = Err::kFault;
      } else {
        std::memcpy(req.out.data(), reply.string_data.data(), req.out.size());
      }
    }
    if (req.on_answer && done.answered) {
      req.on_answer(done);
    }
    return done;
  }

 private:
  void FetchInfo() const {
    if (info_fetched_) {
      return;
    }
    IpcMessage msg = IpcMessage::Short(kBlkInfoLabel);
    IpcMessage reply = port_.w_.kernel->Call(port_.w_.os_thread, port_.w_.blk_server, msg);
    if (reply.status == Err::kNone) {
      block_size_ = static_cast<uint32_t>(reply.regs[1]);
      capacity_ = reply.regs[2];
      info_fetched_ = true;
    }
  }

  UkernelPort& port_;
  mutable bool info_fetched_ = false;
  mutable uint32_t block_size_ = 0;
  mutable uint64_t capacity_ = 0;
};

// Network device backed by IPC to the user-level net driver server.
class UkernelPort::IpcNet : public NetDevice {
 public:
  explicit IpcNet(UkernelPort& port) : port_(port) {
    req_tx_name_ = port_.machine_.names().Intern("net.tx");
  }

  Err Send(std::span<const uint8_t> packet) override {
    if (packet.size() > port_.w_.srv_window_len) {
      return Err::kInvalidArgument;
    }
    auto& rt = port_.machine_.reqtrace();
    ukvm::ReqOriginScope req_scope(rt, req_tx_name_,
                                   port_.machine_.cpu().current_domain());
    port_.PokeWindow(port_.w_.os_thread, port_.w_.srv_window, packet);
    IpcMessage msg = IpcMessage::Short(kNetSendLabel);
    msg.has_string = true;
    msg.string = ukern::StringItem{port_.w_.srv_window, static_cast<uint32_t>(packet.size())};
    IpcMessage reply = port_.w_.kernel->Call(port_.w_.os_thread, port_.w_.net_server, msg);
    const bool ok = reply.status == Err::kNone && static_cast<int64_t>(reply.regs[0]) >= 0;
    if (ok) {
      rt.EndRequest(req_scope.ref());
    } else {
      rt.AbandonRequest(req_scope.ref());
    }
    if (reply.status != Err::kNone) {
      return reply.status;
    }
    return static_cast<int64_t>(reply.regs[0]) < 0
               ? ErrOf(static_cast<SyscallRet>(reply.regs[0]))
               : Err::kNone;
  }

  void SetRecvHandler(RecvHandler handler) override { handler_ = std::move(handler); }
  uint32_t mtu() const override { return 1514; }

  void Deliver(std::span<const uint8_t> packet) {
    if (handler_) {
      handler_(packet);
    }
  }

 private:
  UkernelPort& port_;
  RecvHandler handler_;
  uint32_t req_tx_name_ = 0;  // E22 "net.tx" origin
};

class UkernelPort::PortConsole : public ConsoleDevice {
 public:
  explicit PortConsole(UkernelPort& port) : port_(port) {}
  void Write(std::string_view text) override {
    port_.machine_.ChargeCopy(text.size());
    port_.console_log_.emplace_back(text);
  }

 private:
  UkernelPort& port_;
};

// --- UkernelPort -----------------------------------------------------------------

UkernelPort::UkernelPort(hwsim::Machine& machine, UkernelPortWiring wiring)
    : machine_(machine), w_(wiring) {
  assert(w_.kernel != nullptr);
  req_syscall_name_ = machine_.names().Intern("os.syscall");
  net_dev_ = std::make_unique<IpcNet>(*this);
  block_dev_ = std::make_unique<IpcBlock>(*this);
  console_dev_ = std::make_unique<PortConsole>(*this);

  w_.kernel->SetThreadHandler(w_.os_thread, [this](ThreadId sender, IpcMessage msg) {
    return OsServerEntry(sender, std::move(msg));
  });
  w_.kernel->SetThreadHandler(w_.net_rx_thread, [this](ThreadId sender, IpcMessage msg) {
    return NetRxEntry(sender, std::move(msg));
  });

  // Register with the net server so inbound packets reach our rx thread.
  IpcMessage attach = IpcMessage::Short(kNetAttachLabel, w_.net_rx_thread.value());
  (void)w_.kernel->Call(w_.os_thread, w_.net_server, attach);
}

UkernelPort::~UkernelPort() = default;

NetDevice* UkernelPort::net() { return net_dev_.get(); }
BlockPort* UkernelPort::block() { return block_dev_.get(); }
ConsoleDevice* UkernelPort::console() { return console_dev_.get(); }

void UkernelPort::SetBlockServer(ThreadId server) { w_.blk_server = server; }

void UkernelPort::SetNetServer(ThreadId server) {
  w_.net_server = server;
  // Re-attach our rx thread with the new server.
  IpcMessage attach = IpcMessage::Short(kNetAttachLabel, w_.net_rx_thread.value());
  (void)w_.kernel->Call(w_.os_thread, w_.net_server, attach);
}

uint32_t UkernelPort::max_transfer() const {
  return std::min(w_.app_window_len, w_.srv_window_len);
}

void UkernelPort::PokeWindow(ThreadId thread, hwsim::Vaddr va, std::span<const uint8_t> bytes) {
  // Simulation plumbing, not a charged operation: the bytes notionally
  // already exist in the task's memory; this materialises them so the
  // kernel's (charged) string copy moves real data.
  auto task_id = w_.kernel->TaskOf(thread);
  if (!task_id.ok()) {
    return;
  }
  ukern::Task* task = w_.kernel->FindTask(*task_id);
  const uint64_t page = task->space.page_size();
  size_t done = 0;
  while (done < bytes.size()) {
    const hwsim::Vaddr addr = va + done;
    const size_t chunk = std::min<size_t>(bytes.size() - done, page - (addr & (page - 1)));
    hwsim::Pte* pte = task->space.Walk(addr);
    if (pte == nullptr || !pte->present) {
      UKVM_WARN("ukernel port: window page unmapped at 0x%llx",
                static_cast<unsigned long long>(addr));
      return;
    }
    machine_.memory().Write(machine_.memory().FrameBase(pte->frame) + (addr & (page - 1)),
                            bytes.subspan(done, chunk));
    done += chunk;
  }
}

SyscallRet UkernelPort::InvokeSyscall(Os& os, ukvm::ProcessId pid, SyscallReq& req) {
  os_ = &os;
  if (req.in.size() > w_.app_window_len || req.out.size() > w_.srv_window_len) {
    return RetOf(Err::kInvalidArgument);
  }
  IpcMessage msg;
  msg.regs[0] = kOsSyscallLabel;
  msg.regs[1] = pid.value();
  msg.regs[2] = static_cast<uint64_t>(req.nr);
  msg.regs[3] = req.a0;
  msg.regs[4] = req.a1;
  msg.regs[5] = req.a2;
  msg.regs[6] = req.in.size();
  msg.regs[7] = req.out.size();
  msg.reg_count = 8;
  if (!req.in.empty()) {
    PokeWindow(w_.app_thread, w_.app_window, req.in);
    msg.has_string = true;
    msg.string = ukern::StringItem{w_.app_window, static_cast<uint32_t>(req.in.size())};
  }
  // Every application system call is one traced request: the IPC to the OS
  // server (and any nested driver-server work it charges) attributes here.
  ukvm::ReqOriginScope req_scope(machine_.reqtrace(), req_syscall_name_,
                                 machine_.cpu().current_domain());
  IpcMessage reply = w_.kernel->Call(w_.app_thread, w_.os_thread, msg);
  if (reply.status != Err::kNone) {
    machine_.reqtrace().AbandonRequest(req_scope.ref());
    return RetOf(reply.status);
  }
  if (!req.out.empty() && !reply.string_data.empty()) {
    const size_t n = std::min(req.out.size(), reply.string_data.size());
    std::memcpy(req.out.data(), reply.string_data.data(), n);
  }
  machine_.reqtrace().EndRequest(req_scope.ref());
  return static_cast<SyscallRet>(reply.regs[0]);
}

IpcMessage UkernelPort::OsServerEntry(ThreadId sender, IpcMessage msg) {
  (void)sender;
  if (msg.regs[0] != kOsSyscallLabel || os_ == nullptr) {
    return IpcMessage::Error(Err::kNotSupported);
  }
  const ukvm::ProcessId pid{static_cast<uint32_t>(msg.regs[1])};
  SyscallReq req;
  req.nr = static_cast<Sys>(msg.regs[2]);
  req.a0 = msg.regs[3];
  req.a1 = msg.regs[4];
  req.a2 = msg.regs[5];
  req.in = msg.string_data;
  std::vector<uint8_t> out_buf(msg.regs[7]);
  req.out = out_buf;

  const SyscallRet ret = os_->SyscallImpl(pid, req);

  IpcMessage reply;
  reply.regs[0] = static_cast<uint64_t>(ret);
  reply.reg_count = 1;
  if (!out_buf.empty() && ret >= 0) {
    PokeWindow(w_.os_thread, w_.srv_window, out_buf);
    reply.has_string = true;
    reply.string = ukern::StringItem{w_.srv_window, static_cast<uint32_t>(out_buf.size())};
  }
  return reply;
}

IpcMessage UkernelPort::NetRxEntry(ThreadId sender, IpcMessage msg) {
  (void)sender;
  if (msg.regs[0] == kNetRxLabel) {
    net_dev_->Deliver(msg.string_data);
  }
  return IpcMessage{};
}

}  // namespace minios
