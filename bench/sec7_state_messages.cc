// Section 7 (reconstructed): state messages versus mailbox message-passing.
//
// The paper's intra-node IPC optimization replaces kernel-copied mailbox
// messages with state messages: single-writer multi-reader variables updated
// and read by user-level code, with no kernel trap and no blocking. This
// harness runs a producer publishing a sensor-style value to R consumers
// every 10 ms, implemented both ways on the calibrated kernel. To isolate
// the IPC cost, a baseline run with the same thread structure but no IPC is
// subtracted; reported is the extra virtual time per delivered value.
//
// Expected shape: state messages cost a small near-constant amount per
// transfer (index arithmetic + a word-granular copy) while mailboxes pay the
// kernel trap, queue management, kernel copies, and the context switches
// blocking receivers cause — a several-fold gap that widens with the number
// of consumers (the writer publishes once but must send one mailbox message
// per consumer).

#include <cstdio>
#include <vector>

#include "src/core/kernel.h"
#include "src/hal/hardware.h"

namespace emeralds {
namespace {

enum class IpcKind { kNone, kStateMessage, kMailbox };

struct RunResult {
  double total_us;
  uint64_t transfers;
};

RunResult Run(IpcKind kind, size_t bytes, int readers) {
  Hardware hw;
  KernelConfig config;
  config.cost_model = CostModel::MC68040_25MHz();
  config.trace_capacity = 0;
  Kernel kernel(hw, config);

  SmsgId smsg;
  std::vector<MailboxId> boxes;
  if (kind == IpcKind::kStateMessage) {
    smsg = kernel.CreateStateMessage("value", bytes, readers + 2).value();
  } else if (kind == IpcKind::kMailbox) {
    for (int r = 0; r < readers; ++r) {
      boxes.push_back(kernel.CreateMailbox("chan", 4).value());
    }
  }

  ThreadParams writer;
  writer.name = "writer";
  writer.period = Milliseconds(10);
  writer.body = [kind, smsg, boxes, bytes](ThreadApi api) -> ThreadBody {
    std::vector<uint8_t> payload(bytes, 0x5a);
    for (;;) {
      if (kind == IpcKind::kStateMessage) {
        co_await api.StateWrite(smsg, payload);
      } else if (kind == IpcKind::kMailbox) {
        for (MailboxId box : boxes) {
          co_await api.Send(box, payload);
        }
      }
      co_await api.WaitNextPeriod();
    }
  };
  kernel.CreateThread(writer);
  for (int r = 0; r < readers; ++r) {
    MailboxId box = kind == IpcKind::kMailbox ? boxes[r] : MailboxId();
    ThreadParams reader;
    reader.name = "reader";
    reader.period = Milliseconds(10);
    reader.first_release = Milliseconds(1);
    reader.body = [kind, smsg, box, bytes](ThreadApi api) -> ThreadBody {
      std::vector<uint8_t> buffer(bytes);
      for (;;) {
        if (kind == IpcKind::kStateMessage) {
          co_await api.StateRead(smsg, buffer);
        } else if (kind == IpcKind::kMailbox) {
          co_await api.Recv(box, buffer);
        }
        co_await api.WaitNextPeriod();
      }
    };
    kernel.CreateThread(reader);
  }
  kernel.Start();
  kernel.RunUntil(Instant() + Seconds(1));
  const KernelStats& stats = kernel.stats();
  uint64_t transfers =
      kind == IpcKind::kStateMessage ? stats.smsg_reads : stats.mailbox_receives;
  return {(stats.total_charged() + stats.cycles().at(CycleBucket::kUser)).micros_f(),
          transfers};
}

}  // namespace
}  // namespace emeralds

int main() {
  using namespace emeralds;
  std::printf("State messages vs mailboxes: extra virtual us per delivered value\n");
  std::printf("(1 writer -> R readers at 100 Hz, 1 s simulated, scaffold-subtracted)\n\n");
  std::printf("%6s %8s | %10s %10s %8s\n", "bytes", "readers", "state-msg", "mailbox", "ratio");
  for (size_t bytes : {4, 16, 64}) {
    for (int readers : {1, 2, 4, 8}) {
      RunResult baseline = Run(IpcKind::kNone, bytes, readers);
      RunResult smsg = Run(IpcKind::kStateMessage, bytes, readers);
      RunResult mbox = Run(IpcKind::kMailbox, bytes, readers);
      double smsg_us = (smsg.total_us - baseline.total_us) / smsg.transfers;
      double mbox_us = (mbox.total_us - baseline.total_us) / mbox.transfers;
      std::printf("%6zu %8d | %10.2f %10.2f %7.2fx\n", bytes, readers, smsg_us, mbox_us,
                  mbox_us / smsg_us);
    }
  }
  std::printf("\nexpected shape: state messages a small near-constant (no kernel trap,\n");
  std::printf("no blocking); mailboxes several times costlier, growing with readers\n");
  return 0;
}
