// Intra-node IPC (Section 7): mailboxes and state messages.
//
// Mailboxes are conventional kernel-copied bounded message queues with
// priority-ordered blocking on both ends and receive timeouts. State messages
// are the EMERALDS optimization: single-writer multi-reader message variables
// whose send/receive are user-level memory operations — no kernel trap, no
// blocking — made safe by a rotating set of versioned slots. The state-message
// copies are charged as (preemptible) application compute time, so a reader
// really can be lapped by the writer mid-copy; the version check detects it
// and the reader retries, exactly as the slot-sizing analysis
// (StateMessageBuffer::MinSlots) assumes.

#include "src/core/kernel.h"

#include <cstring>

namespace emeralds {

Mailbox* Kernel::MailboxPtr(MailboxId id) {
  if (!id.valid() || static_cast<size_t>(id.value) >= mailboxes_.size()) {
    return nullptr;
  }
  return mailboxes_[id.value].get();
}

StateMessageBuffer* Kernel::SmsgPtr(SmsgId id) {
  if (!id.valid() || static_cast<size_t>(id.value) >= smsgs_.size()) {
    return nullptr;
  }
  return smsgs_[id.value].get();
}

Duration Kernel::CopyCost(size_t bytes) const {
  // Word-granular copies (4-byte words, rounded up).
  return cost_.copy_per_word * static_cast<int64_t>((bytes + 3) / 4);
}

// --- Mailboxes ---

Kernel::SyscallOutcome Kernel::SysSend(Tcb& t, MailboxId id, std::span<const uint8_t> data,
                                       bool wait) {
  EM_ASSERT(&t == cores_[t.core]->current);
  ++stats_.syscalls;
  Charge(CycleBucket::kSyscall, cost_.syscall);
  Mailbox* mbox = MailboxPtr(id);
  if (mbox == nullptr) {
    t.syscall_status = Status::kBadHandle;
    return {false};
  }
  if (!mbox->access.Allows(t.process)) {
    t.syscall_status = Status::kPermissionDenied;
    return {false};
  }
  if (data.size() > kMaxMessageBytes) {
    t.syscall_status = Status::kInvalidArgument;
    return {false};
  }
  Charge(CycleBucket::kIpc, cost_.mailbox_fixed);

  if (!mbox->recv_waiters.empty()) {
    // Direct delivery to the highest-priority blocked receiver (the queue is
    // necessarily empty when receivers wait).
    EM_ASSERT(mbox->queue->empty());
    MboxMessage message;
    for (uint8_t b : data) {
      message.bytes.push_back(b);
    }
    message.sender = t.id;
    message.sent_at = hw_.now();
    message.token = ChainEmit(ChainEndpointPack(ChainEndpointKind::kMailbox, mbox->id.value), &t);
    Charge(CycleBucket::kIpc, CopyCost(data.size()));
    DeliverToWaiter(*mbox, std::move(message));
    ++mbox->sends;
    ++stats_.mailbox_sends;
    trace_.Record(hw_.now(), TraceEventType::kMsgSend, t.id.value, mbox->id.value);
    t.syscall_status = Status::kOk;
    if (need_resched()) {
      t.resume_pending = true;
      return {true};
    }
    return {false};
  }

  if (!mbox->queue->full()) {
    MboxMessage message;
    for (uint8_t b : data) {
      message.bytes.push_back(b);
    }
    message.sender = t.id;
    message.sent_at = hw_.now();
    message.token = ChainEmit(ChainEndpointPack(ChainEndpointKind::kMailbox, mbox->id.value), &t);
    Charge(CycleBucket::kIpc, CopyCost(data.size()));
    mbox->queue->push(std::move(message));
    ++mbox->sends;
    ++stats_.mailbox_sends;
    trace_.Record(hw_.now(), TraceEventType::kMsgSend, t.id.value, mbox->id.value);
    t.syscall_status = Status::kOk;
    return {false};
  }

  if (!wait) {
    t.syscall_status = Status::kWouldBlock;
    return {false};
  }

  // Block until space frees; the payload is copied at admission time. The
  // span stays valid because the sender's coroutine frame is suspended.
  ++mbox->send_blocks;
  t.send_data = data;
  t.waiting_mailbox = id;
  t.syscall_status = Status::kOk;
  BlockThread(t, BlockReason::kWaitMailboxSend);
  int visits = 0;
  Tcb* insert_before = nullptr;
  for (Tcb& other : mbox->send_waiters) {
    ++visits;
    if (HigherPriority(t, other)) {
      insert_before = &other;
      break;
    }
  }
  if (insert_before != nullptr) {
    mbox->send_waiters.insert_before(*insert_before, t);
  } else {
    mbox->send_waiters.push_back(t);
  }
  Charge(CycleBucket::kIpc, cost_.waitq_visit * visits);
  return {true};
}

Kernel::SyscallOutcome Kernel::SysRecv(Tcb& t, MailboxId id, std::span<uint8_t> buffer,
                                       Duration timeout, SemId next_sem) {
  EM_ASSERT(&t == cores_[t.core]->current);
  ++stats_.syscalls;
  Charge(CycleBucket::kSyscall, cost_.syscall);
  Mailbox* mbox = MailboxPtr(id);
  if (mbox == nullptr) {
    t.syscall_status = Status::kBadHandle;
    return {false};
  }
  if (!mbox->access.Allows(t.process)) {
    t.syscall_status = Status::kPermissionDenied;
    return {false};
  }
  Charge(CycleBucket::kIpc, cost_.mailbox_fixed);

  if (!mbox->queue->empty()) {
    MboxMessage message = mbox->queue->pop();
    size_t n = std::min(buffer.size(), message.bytes.size());
    if (n > 0) {
      std::memcpy(buffer.data(), message.bytes.data(), n);
    }
    Charge(CycleBucket::kIpc, CopyCost(n));
    t.syscall_status = RecvCopyStatus(n, message.bytes.size());
    t.syscall_length = n;
    ++mbox->receives;
    ++stats_.mailbox_receives;
    trace_.Record(hw_.now(), TraceEventType::kMsgRecv, t.id.value, mbox->id.value);
    ChainConsume(ChainEndpointPack(ChainEndpointKind::kMailbox, mbox->id.value), message.token, t);
    // Space freed: admit the highest-priority blocked sender, if any.
    AdmitBlockedSender(*mbox);
    if (need_resched()) {
      t.resume_pending = true;
      return {true};
    }
    return {false};
  }

  if (timeout.is_negative()) {  // kNoWait
    t.syscall_status = Status::kWouldBlock;
    t.syscall_length = 0;
    return {false};
  }

  ++mbox->recv_blocks;
  t.recv_buffer = buffer;
  t.waiting_mailbox = id;
  t.wakeup_hint = next_sem;
  if (timeout.is_positive()) {
    ArmSoftTimer(t.timeout_timer, hw_.now() + timeout);
  }
  BlockThread(t, BlockReason::kWaitMailboxRecv);
  int visits = 0;
  Tcb* insert_before = nullptr;
  for (Tcb& other : mbox->recv_waiters) {
    ++visits;
    if (HigherPriority(t, other)) {
      insert_before = &other;
      break;
    }
  }
  if (insert_before != nullptr) {
    mbox->recv_waiters.insert_before(*insert_before, t);
  } else {
    mbox->recv_waiters.push_back(t);
  }
  Charge(CycleBucket::kIpc, cost_.waitq_visit * visits);
  return {true};
}

// A short receive buffer cuts the payload: the caller gets the prefix that
// fits plus kTruncated, never a silent kOk.
Status Kernel::RecvCopyStatus(size_t copied, size_t message_size) {
  if (copied < message_size) {
    ++stats_.mailbox_truncations;
    return Status::kTruncated;
  }
  return Status::kOk;
}

// A blocked receive resolves exactly once — by delivery or by timeout — and
// both resolutions funnel through here so the TCB never keeps a stale wait
// record (dangling recv_buffer span, waiting_mailbox id, armed timer).
void Kernel::FinishMailboxRecvWait(Tcb& receiver) {
  CancelSoftTimer(receiver.timeout_timer);
  receiver.recv_buffer = {};
  receiver.waiting_mailbox = MailboxId();
}

void Kernel::DeliverToWaiter(Mailbox& mbox, MboxMessage&& message) {
  Tcb* receiver = mbox.recv_waiters.front();  // priority-ordered at insert
  EM_ASSERT(receiver != nullptr);
  mbox.recv_waiters.erase(*receiver);
  size_t n = std::min(receiver->recv_buffer.size(), message.bytes.size());
  if (n > 0) {
    std::memcpy(receiver->recv_buffer.data(), message.bytes.data(), n);
  }
  receiver->syscall_status = RecvCopyStatus(n, message.bytes.size());
  receiver->syscall_length = n;
  FinishMailboxRecvWait(*receiver);
  ++mbox.receives;
  ++stats_.mailbox_receives;
  trace_.Record(hw_.now(), TraceEventType::kMsgRecv, receiver->id.value, mbox.id.value);
  // Direct handoff runs in the sender's context; the consume names the
  // receiver explicitly.
  ChainConsume(ChainEndpointPack(ChainEndpointKind::kMailbox, mbox.id.value), message.token,
               *receiver);
  WakeThread(*receiver);
}

void Kernel::AdmitBlockedSender(Mailbox& mbox) {
  Tcb* sender = mbox.send_waiters.front();
  if (sender == nullptr || mbox.queue->full()) {
    return;
  }
  mbox.send_waiters.erase(*sender);
  MboxMessage message;
  for (uint8_t b : sender->send_data) {
    message.bytes.push_back(b);
  }
  message.sender = sender->id;
  message.sent_at = hw_.now();
  // The blocked send commits here, possibly in another thread's context:
  // the emit propagates the *sender's* carried token.
  message.token = ChainEmit(ChainEndpointPack(ChainEndpointKind::kMailbox, mbox.id.value), sender);
  Charge(CycleBucket::kIpc, CopyCost(sender->send_data.size()));
  mbox.queue->push(std::move(message));
  ++mbox.sends;
  ++stats_.mailbox_sends;
  sender->send_data = {};
  sender->waiting_mailbox = MailboxId();
  sender->syscall_status = Status::kOk;
  trace_.Record(hw_.now(), TraceEventType::kMsgSend, sender->id.value, mbox.id.value);
  WakeThread(*sender);
}

// --- State messages ---

Kernel::SyscallOutcome Kernel::SysStateWrite(Tcb& t, SmsgId id, std::span<const uint8_t> data) {
  EM_ASSERT(&t == cores_[t.core]->current);
  // User-level operation: no syscall trap is charged.
  StateMessageBuffer* smsg = SmsgPtr(id);
  if (smsg == nullptr) {
    t.syscall_status = Status::kBadHandle;
    return {false};
  }
  if (!smsg->access.Allows(t.process)) {
    t.syscall_status = Status::kPermissionDenied;
    return {false};
  }
  if (data.size() > smsg->size) {
    t.syscall_status = Status::kInvalidArgument;
    return {false};
  }
  if (!smsg->writer.valid()) {
    smsg->writer = t.id;  // first writer claims the channel
  } else if (smsg->writer != t.id) {
    t.syscall_status = Status::kPermissionDenied;  // single-writer invariant
    return {false};
  }

  int slot = (smsg->latest_slot + 1) % smsg->num_slots;
  smsg->slot_seq[slot] = 0;  // invalidate while under construction
  t.pending_op = PendingOpKind::kStateWriteCommit;
  t.pending_smsg = id;
  t.pending_write_data = data;
  t.pending_slot = slot;
  // The copy runs in user time and is preemptible.
  t.remaining_compute = cost_.statemsg_fixed + CopyCost(data.size());
  if (!t.remaining_compute.is_positive()) {
    FinishStateWrite(t);
    if (need_resched()) {
      return {true};  // resume_pending already set
    }
    t.resume_pending = false;
    return {false};
  }
  return {true};
}

void Kernel::FinishStateWrite(Tcb& t) {
  StateMessageBuffer* smsg = SmsgPtr(t.pending_smsg);
  EM_ASSERT(smsg != nullptr);
  int slot = t.pending_slot;
  std::memcpy(smsg->SlotData(slot), t.pending_write_data.data(), t.pending_write_data.size());
  if (t.pending_write_data.size() < smsg->size) {
    std::memset(smsg->SlotData(slot) + t.pending_write_data.size(), 0,
                smsg->size - t.pending_write_data.size());
  }
  // Commit: bump the version and publish the slot (two atomic stores). The
  // causal token is committed with the version, so a reader whose seqlock
  // validation succeeds reads the matching token.
  smsg->slot_seq[slot] = ++smsg->latest_seq;
  smsg->slot_token[slot] =
      ChainEmit(ChainEndpointPack(ChainEndpointKind::kSmsg, smsg->id.value), &t);
  smsg->latest_slot = slot;
  ++smsg->writes;
  ++stats_.smsg_writes;
  trace_.Record(hw_.now(), TraceEventType::kMsgSend, t.id.value, smsg->id.value);
  t.pending_op = PendingOpKind::kNone;
  t.pending_write_data = {};
  t.syscall_status = Status::kOk;
  t.resume_pending = true;
}

Kernel::SyscallOutcome Kernel::SysStateRead(Tcb& t, SmsgId id, std::span<uint8_t> buffer) {
  EM_ASSERT(&t == cores_[t.core]->current);
  StateMessageBuffer* smsg = SmsgPtr(id);
  if (smsg == nullptr) {
    t.syscall_status = Status::kBadHandle;
    return {false};
  }
  if (!smsg->access.Allows(t.process)) {
    t.syscall_status = Status::kPermissionDenied;
    return {false};
  }
  if (smsg->latest_slot < 0) {
    t.syscall_status = Status::kWouldBlock;  // nothing published yet
    t.syscall_sequence = 0;
    return {false};
  }
  t.pending_op = PendingOpKind::kStateReadValidate;
  t.pending_smsg = id;
  t.pending_read_buffer = buffer;
  t.pending_slot = smsg->latest_slot;
  t.pending_seq = smsg->slot_seq[smsg->latest_slot];
  t.pending_retries = 0;
  t.remaining_compute = cost_.statemsg_fixed + CopyCost(std::min(buffer.size(), smsg->size));
  if (!t.remaining_compute.is_positive()) {
    FinishStateRead(t);
    if (need_resched()) {
      return {true};  // resume_pending already set
    }
    t.resume_pending = false;
    return {false};
  }
  return {true};
}

void Kernel::FinishStateRead(Tcb& t) {
  StateMessageBuffer* smsg = SmsgPtr(t.pending_smsg);
  EM_ASSERT(smsg != nullptr);
  int slot = t.pending_slot;
  // Seqlock-style validation: if the writer invalidated or recommitted the
  // slot during our copy window, the snapshot would have been torn — retry.
  if (smsg->slot_seq[slot] == t.pending_seq && t.pending_seq != 0) {
    size_t n = std::min(t.pending_read_buffer.size(), smsg->size);
    std::memcpy(t.pending_read_buffer.data(), smsg->SlotData(slot), n);
    t.syscall_status = Status::kOk;
    t.syscall_sequence = t.pending_seq;
    t.syscall_length = n;
    t.syscall_retries = t.pending_retries;
    ++smsg->reads;
    ++stats_.smsg_reads;
    trace_.Record(hw_.now(), TraceEventType::kMsgRecv, t.id.value, smsg->id.value);
    // Re-reads of the same slot consume the same emit — allowed by design
    // (state messages are sampled, not queued).
    ChainConsume(ChainEndpointPack(ChainEndpointKind::kSmsg, smsg->id.value),
                 smsg->slot_token[slot], t);
    t.pending_op = PendingOpKind::kNone;
    t.pending_read_buffer = {};
    t.resume_pending = true;
    return;
  }
  ++smsg->read_retries;
  ++stats_.smsg_read_retries;
  ++t.pending_retries;
  if (t.pending_retries > 8) {
    // Pathologically under-sized buffer (see MinSlots); report rather than
    // spin forever.
    t.syscall_status = Status::kBusy;
    t.syscall_sequence = 0;
    t.syscall_length = 0;
    t.syscall_retries = t.pending_retries;
    t.pending_op = PendingOpKind::kNone;
    t.pending_read_buffer = {};
    t.resume_pending = true;
    return;
  }
  // Re-snapshot the (new) latest slot and copy again.
  EM_ASSERT(smsg->latest_slot >= 0);
  t.pending_slot = smsg->latest_slot;
  t.pending_seq = smsg->slot_seq[smsg->latest_slot];
  t.remaining_compute =
      cost_.statemsg_fixed + CopyCost(std::min(t.pending_read_buffer.size(), smsg->size));
  if (!t.remaining_compute.is_positive()) {
    FinishStateRead(t);  // zero-cost model: recurse once; bounded by retries
  }
}

}  // namespace emeralds
