#include "src/stacks/xenbus.h"

#include "src/core/metrics.h"
#include "src/core/trace.h"

namespace ustack {

const char* XenbusStateName(XenbusState state) {
  switch (state) {
    case XenbusState::kInit:
      return "init";
    case XenbusState::kConnected:
      return "connected";
    case XenbusState::kClosing:
      return "closing";
    case XenbusState::kReconnecting:
      return "reconnecting";
  }
  return "?";
}

XenbusConn::XenbusConn(hwsim::Machine& machine, std::string_view service,
                       ukvm::DomainId domain)
    : machine_(machine), service_(service), domain_(domain) {
  auto& tracer = machine_.tracer();
  trace_state_name_ = machine_.names().Intern("xenbus." + service_ + ".state");
  trace_recovery_name_ = machine_.names().Intern("xenbus." + service_ + ".recovery");
  hist_detect_ = tracer.InternHistogram("recovery.detect");
  hist_reclaim_ = tracer.InternHistogram("recovery.reclaim");
  hist_reconnect_ = tracer.InternHistogram("recovery.reconnect");
  hist_replay_ = tracer.InternHistogram("recovery.replay");
  hist_e2e_ = tracer.InternHistogram("recovery.e2e");
}

void XenbusConn::Transition(XenbusState next) {
  state_ = next;
  machine_.tracer().Instant(trace_state_name_, domain_,
                            static_cast<uint64_t>(next), reconnects_);
}

void XenbusConn::OnConnected() {
  if (state_ != XenbusState::kInit) {
    return;  // reconnects land via OnReconnected, which records the segment
  }
  Transition(XenbusState::kConnected);
}

void XenbusConn::MarkFailure(uint64_t when) {
  if (failure_at_ == 0 || when < failure_at_) {
    failure_at_ = when;
  }
}

void XenbusConn::OnDetected() {
  if (state_ != XenbusState::kConnected) {
    return;  // already mid-recovery (or never connected): keep the first clock
  }
  detected_at_ = machine_.Now();
  if (failure_at_ == 0) {
    failure_at_ = detected_at_;  // nobody marked the kill edge; detect = 0
  }
  machine_.tracer().RecordLatency(hist_detect_, detected_at_ - failure_at_);
  recovery_span_ = machine_.tracer().BeginSpan(trace_recovery_name_, domain_);
  Transition(XenbusState::kClosing);
}

void XenbusConn::OnReclaimed() {
  if (state_ != XenbusState::kClosing) {
    return;
  }
  reclaimed_at_ = machine_.Now();
  machine_.tracer().RecordLatency(hist_reclaim_, reclaimed_at_ - detected_at_);
  Transition(XenbusState::kReconnecting);
}

void XenbusConn::OnReconnected() {
  if (state_ != XenbusState::kReconnecting) {
    return;
  }
  reconnected_at_ = machine_.Now();
  ++reconnects_;
  auto& tracer = machine_.tracer();
  tracer.RecordLatency(hist_reconnect_, reconnected_at_ - reclaimed_at_);
  tracer.RecordLatency(hist_e2e_, reconnected_at_ - failure_at_);
  if (recovery_span_ != 0) {
    tracer.EndSpan(recovery_span_);
    recovery_span_ = 0;
  }
  machine_.counters().AddNamed("xenbus.reconnects");
  last_phases_ = minios::RecoveryPhases{failure_at_, detected_at_, reclaimed_at_, reconnected_at_};
  failure_at_ = 0;
  Transition(XenbusState::kConnected);
}

void XenbusConn::OnReplayed(uint64_t replayed) {
  replayed_total_ += replayed;
  machine_.tracer().RecordLatency(hist_replay_, machine_.Now() - reconnected_at_);
  machine_.counters().AddNamed("xenbus.replayed", replayed);
}

}  // namespace ustack
