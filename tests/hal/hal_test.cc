// Virtual hardware tests: clock, hardware timers, interrupt controller,
// cost model, trace sink, and the trace digest's fold.

#include <cstdio>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/hal/cost_model.h"
#include "src/hal/hardware.h"
#include "src/hal/trace.h"

namespace emeralds {
namespace {

TEST(VirtualClockTest, StartsAtZeroAndAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.now().nanos(), 0);
  clock.AdvanceBy(Microseconds(5));
  EXPECT_EQ(clock.now().micros(), 5);
  clock.AdvanceTo(Instant() + Milliseconds(1));
  EXPECT_EQ(clock.now().micros(), 1000);
}

TEST(VirtualClockTest, ZeroAdvanceAllowed) {
  VirtualClock clock;
  clock.AdvanceTo(clock.now());
  clock.AdvanceBy(Duration());
  EXPECT_EQ(clock.now().nanos(), 0);
}

class RecordingTimer : public HardwareTimer {
 public:
  explicit RecordingTimer(std::vector<int>* log, int id) : log_(log), id_(id) {}
  void OnExpire(Hardware& hw) override { log_->push_back(id_); }

 private:
  std::vector<int>* log_;
  int id_;
};

TEST(HardwareTimerTest, FiresInExpiryOrder) {
  Hardware hw;
  std::vector<int> log;
  RecordingTimer t1(&log, 1), t2(&log, 2), t3(&log, 3);
  hw.ArmTimer(t2, Instant() + Microseconds(20));
  hw.ArmTimer(t1, Instant() + Microseconds(10));
  hw.ArmTimer(t3, Instant() + Microseconds(30));
  EXPECT_EQ(hw.NextTimerExpiry(), Instant() + Microseconds(10));
  hw.clock().AdvanceTo(Instant() + Microseconds(25));
  EXPECT_EQ(hw.FireDueTimers(), 2);
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_TRUE(t3.armed());
}

TEST(HardwareTimerTest, SimultaneousExpiryFiresInArmOrder) {
  Hardware hw;
  std::vector<int> log;
  RecordingTimer t1(&log, 1), t2(&log, 2);
  hw.ArmTimer(t2, Instant() + Microseconds(10));  // armed first
  hw.ArmTimer(t1, Instant() + Microseconds(10));
  hw.clock().AdvanceTo(Instant() + Microseconds(10));
  hw.FireDueTimers();
  EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(HardwareTimerTest, RearmReprograms) {
  Hardware hw;
  std::vector<int> log;
  RecordingTimer t(&log, 1);
  hw.ArmTimer(t, Instant() + Microseconds(10));
  hw.ArmTimer(t, Instant() + Microseconds(50));
  hw.clock().AdvanceTo(Instant() + Microseconds(20));
  EXPECT_EQ(hw.FireDueTimers(), 0);
  EXPECT_TRUE(t.armed());
  hw.clock().AdvanceTo(Instant() + Microseconds(50));
  EXPECT_EQ(hw.FireDueTimers(), 1);
  EXPECT_FALSE(t.armed());
}

TEST(HardwareTimerTest, DisarmPreventsFire) {
  Hardware hw;
  std::vector<int> log;
  RecordingTimer t(&log, 1);
  hw.ArmTimer(t, Instant() + Microseconds(10));
  hw.DisarmTimer(t);
  hw.clock().AdvanceTo(Instant() + Microseconds(20));
  EXPECT_EQ(hw.FireDueTimers(), 0);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(hw.NextTimerExpiry(), Instant::Max());
}

class RearmingTimer : public HardwareTimer {
 public:
  explicit RearmingTimer(int* count) : count_(count) {}
  void OnExpire(Hardware& hw) override {
    ++*count_;
    if (*count_ < 3) {
      hw.ArmTimer(*this, hw.now());  // due immediately
    }
  }

 private:
  int* count_;
};

TEST(HardwareTimerTest, CallbackMayRearmDueImmediately) {
  Hardware hw;
  int count = 0;
  RearmingTimer t(&count);
  hw.ArmTimer(t, Instant());
  EXPECT_EQ(hw.FireDueTimers(), 3);
  EXPECT_EQ(count, 3);
}

struct IrqRecorder {
  std::vector<int> lines;
  static void Handler(void* context, int line) {
    static_cast<IrqRecorder*>(context)->lines.push_back(line);
  }
};

TEST(InterruptControllerTest, DispatchCallsHandler) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(3, &IrqRecorder::Handler, &rec);
  ic.Raise(3);
  EXPECT_TRUE(ic.pending(3));
  EXPECT_EQ(ic.DispatchPending(), 1);
  EXPECT_FALSE(ic.pending(3));
  EXPECT_EQ(rec.lines, (std::vector<int>{3}));
}

TEST(InterruptControllerTest, CoalescesWhilePending) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(1, &IrqRecorder::Handler, &rec);
  ic.Raise(1);
  ic.Raise(1);
  EXPECT_EQ(ic.DispatchPending(), 1);
  EXPECT_EQ(ic.raised_count(1), 2u);
  EXPECT_EQ(ic.dispatched_count(1), 1u);
}

TEST(InterruptControllerTest, MaskedLineNotDelivered) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(2, &IrqRecorder::Handler, &rec);
  ic.SetEnabled(2, false);
  ic.Raise(2);
  EXPECT_FALSE(ic.AnyDeliverable());
  EXPECT_EQ(ic.DispatchPending(), 0);
  ic.SetEnabled(2, true);
  EXPECT_TRUE(ic.AnyDeliverable());
  EXPECT_EQ(ic.DispatchPending(), 1);
}

TEST(InterruptControllerTest, GlobalDisableBlocksAll) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(0, &IrqRecorder::Handler, &rec);
  ic.SetGlobalEnable(false);
  ic.Raise(0);
  EXPECT_EQ(ic.DispatchPending(), 0);
  ic.SetGlobalEnable(true);
  EXPECT_EQ(ic.DispatchPending(), 1);
}

TEST(InterruptControllerTest, FixedPriorityOrder) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(5, &IrqRecorder::Handler, &rec);
  ic.Attach(1, &IrqRecorder::Handler, &rec);
  ic.Raise(5);
  ic.Raise(1);
  ic.DispatchPending();
  EXPECT_EQ(rec.lines, (std::vector<int>{1, 5}));
}

TEST(InterruptControllerTest, UnattachedPendingNotDeliverable) {
  InterruptController ic;
  ic.Raise(7);
  EXPECT_TRUE(ic.pending(7));
  EXPECT_FALSE(ic.AnyDeliverable());
}

// A handler's raise of a higher line is dispatched later in the same pass;
// a raise of a lower line waits for the next pass.
TEST(InterruptControllerTest, HandlerRaisesKeepLineOrder) {
  struct Chain {
    InterruptController* ic;
    std::vector<int> lines;
    static void Handler(void* context, int line) {
      auto* self = static_cast<Chain*>(context);
      self->lines.push_back(line);
      if (line == 4) {
        self->ic->Raise(2);
        self->ic->Raise(9);
      }
    }
  };
  InterruptController ic;
  Chain chain{&ic, {}};
  for (int line : {2, 4, 9}) {
    ic.Attach(line, &Chain::Handler, &chain);
  }
  ic.Raise(4);
  EXPECT_EQ(ic.DispatchPending(), 3);
  EXPECT_EQ(chain.lines, (std::vector<int>{4, 9, 2}));
  EXPECT_FALSE(ic.AnyDeliverable());

  // A pending line that loses its handler is not deliverable until it gets
  // one back.
  ic.Detach(9);
  ic.Raise(9);
  EXPECT_TRUE(ic.pending(9));
  EXPECT_FALSE(ic.AnyDeliverable());
  EXPECT_EQ(ic.DispatchPending(), 0);
  ic.Attach(9, &Chain::Handler, &chain);
  EXPECT_TRUE(ic.AnyDeliverable());
  EXPECT_EQ(ic.DispatchPending(), 1);
  EXPECT_EQ(chain.lines, (std::vector<int>{4, 9, 2, 9}));
}

TEST(CostModelTest, Table1EdfFits) {
  CostModel m = CostModel::MC68040_25MHz();
  // t_b = 1.6, t_u = 1.2, t_s = 1.2 + 0.25 n.
  EXPECT_EQ(m.QueueCost(QueueKind::kEdfList, QueueOp::kBlock, 1).nanos(), 1600);
  EXPECT_EQ(m.QueueCost(QueueKind::kEdfList, QueueOp::kUnblock, 1).nanos(), 1200);
  EXPECT_EQ(m.QueueCost(QueueKind::kEdfList, QueueOp::kSelect, 10).nanos(), 1200 + 2500);
}

TEST(CostModelTest, Table1RmFits) {
  CostModel m = CostModel::MC68040_25MHz();
  // t_b = 1.0 + 0.36 n, t_u = 1.4, t_s = 0.6.
  EXPECT_EQ(m.QueueCost(QueueKind::kRmList, QueueOp::kBlock, 10).nanos(), 1000 + 3600);
  EXPECT_EQ(m.QueueCost(QueueKind::kRmList, QueueOp::kUnblock, 1).nanos(), 1400);
  EXPECT_EQ(m.QueueCost(QueueKind::kRmList, QueueOp::kSelect, 1).nanos(), 600);
}

TEST(CostModelTest, Table1HeapFits) {
  CostModel m = CostModel::MC68040_25MHz();
  // t_b = 0.4 + 2.8 ceil(log2(n+1)) with `units` = levels.
  EXPECT_EQ(m.QueueCost(QueueKind::kRmHeap, QueueOp::kBlock, 4).nanos(), 400 + 4 * 2800);
  EXPECT_EQ(m.QueueCost(QueueKind::kRmHeap, QueueOp::kUnblock, 4).nanos(), 1900 + 4 * 700);
  EXPECT_EQ(m.QueueCost(QueueKind::kRmHeap, QueueOp::kSelect, 1).nanos(), 600);
}

TEST(CostModelTest, ZeroModelChargesNothing) {
  CostModel m = CostModel::Zero();
  EXPECT_TRUE(m.QueueCost(QueueKind::kEdfList, QueueOp::kSelect, 50).is_zero());
  EXPECT_TRUE(m.context_switch.is_zero());
  EXPECT_TRUE(m.syscall.is_zero());
}

TEST(TraceSinkTest, RecordsAndOverwrites) {
  TraceSink sink(2);
  sink.Record(Instant(), TraceEventType::kJobRelease, 1, 1);
  sink.Record(Instant() + Microseconds(1), TraceEventType::kJobComplete, 1, 1);
  sink.Record(Instant() + Microseconds(2), TraceEventType::kDeadlineMiss, 2, 1);
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.total_recorded(), 3u);
  EXPECT_EQ(sink.at(0).type, TraceEventType::kJobComplete);
  EXPECT_EQ(sink.at(1).type, TraceEventType::kDeadlineMiss);
}

TEST(TraceSinkTest, ZeroCapacityCountsOnly) {
  TraceSink sink(0);
  sink.Record(Instant(), TraceEventType::kIrq, 1, 0);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_recorded(), 1u);
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceSinkTest, DroppedCountsEvictions) {
  TraceSink sink(2);
  for (int i = 0; i < 5; ++i) {
    sink.Record(Instant() + Microseconds(i), TraceEventType::kIrq, i, 0);
  }
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 3u);
  EXPECT_EQ(sink.total_recorded(), sink.size() + sink.dropped());
  sink.Clear();
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.total_recorded(), 0u);
}

TEST(TraceSinkTest, ResetClearsDroppedAndRecordsEpochMarker) {
  TraceSink sink(4);
  for (int i = 0; i < 7; ++i) {
    sink.Record(Instant() + Microseconds(i), TraceEventType::kIrq, i, 0);
  }
  EXPECT_EQ(sink.dropped(), 3u);
  EXPECT_EQ(sink.epochs(), 0u);

  sink.Reset(Instant() + Microseconds(100));
  // The overflow drops are forgiven — the discard was deliberate — and the
  // new window opens with exactly one event: the epoch marker.
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.epochs(), 1u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.at(0).type, TraceEventType::kTraceEpoch);
  EXPECT_EQ(sink.at(0).arg0, 1);
  EXPECT_EQ(sink.at(0).time, Instant() + Microseconds(100));
  // total_recorded keeps counting across resets (7 pre-reset + the marker).
  EXPECT_EQ(sink.total_recorded(), 8u);

  sink.Record(Instant() + Microseconds(101), TraceEventType::kJobRelease, 1, 0);
  sink.Reset(Instant() + Microseconds(200));
  EXPECT_EQ(sink.epochs(), 2u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.at(0).arg0, 2);

  // Clear() wipes back to construction state, including the epoch count.
  sink.Clear();
  EXPECT_EQ(sink.epochs(), 0u);
  EXPECT_EQ(sink.total_recorded(), 0u);
}

TEST(TraceSinkTest, ResetOnZeroCapacitySinkStaysDisabled) {
  TraceSink sink(0);
  sink.Record(Instant(), TraceEventType::kIrq, 1, 0);
  sink.Reset(Instant() + Microseconds(5));
  // Recording is still disabled, so even the marker is counted as dropped —
  // but the pre-reset drop tally itself was forgiven.
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 1u);
  EXPECT_EQ(sink.epochs(), 1u);
}

bool SameEvent(const TraceEvent& a, const TraceEvent& b) {
  return a.time == b.time && a.type == b.type && a.arg0 == b.arg0 && a.arg1 == b.arg1 &&
         a.arg2 == b.arg2;
}

// Lockstep property test: a sink and a reference std::deque holding the last
// `capacity` records take the same seeded Record/Reset/Clear sequence and
// must agree on every observable after every step, through many wraps of
// the ring, and storage never exceeds `capacity` records.
TEST(TraceSinkTest, MatchesDequeReferenceInLockstep) {
  for (size_t capacity : {0, 1, 2, 3, 7, 64}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    Rng rng(capacity + 1);
    TraceSink sink(capacity);
    std::deque<TraceEvent> window;
    uint64_t total = 0;
    uint64_t dropped = 0;
    uint64_t epochs = 0;
    uint64_t evictions = 0;  // across the whole run, to show the window wraps
    auto record = [&](const TraceEvent& e) {
      ++total;
      if (capacity == 0) {
        ++dropped;
        return;
      }
      if (window.size() == capacity) {
        window.pop_front();
        ++dropped;
        ++evictions;
      }
      window.push_back(e);
    };
    for (int step = 0; step < 20000; ++step) {
      Instant now = Instant() + Microseconds(step);
      int64_t op = rng.UniformInt(0, 999);
      if (op < 1) {
        sink.Clear();
        window.clear();
        total = 0;
        dropped = 0;
        epochs = 0;
      } else if (op < 3) {
        sink.Reset(now);
        window.clear();
        dropped = 0;
        ++epochs;
        record(TraceEvent{now, TraceEventType::kTraceEpoch, static_cast<int32_t>(epochs), 0, 0});
      } else {
        TraceEvent e{now, static_cast<TraceEventType>(rng.UniformInt(0, kNumTraceEventTypes - 1)),
                     static_cast<int32_t>(rng.UniformInt(-1, 1000)), static_cast<int32_t>(step),
                     static_cast<int32_t>(rng.UniformInt(0, 7))};
        sink.Record(e.time, e.type, e.arg0, e.arg1, e.arg2);
        record(e);
      }
      ASSERT_EQ(sink.size(), window.size()) << "step " << step;
      ASSERT_EQ(sink.events().size(), window.size()) << "step " << step;
      for (size_t i = 0; i < window.size(); ++i) {
        ASSERT_TRUE(SameEvent(sink.at(i), window[i])) << "step " << step << " index " << i;
        ASSERT_TRUE(SameEvent(sink.events()[i], window[i])) << "step " << step << " index " << i;
      }
      ASSERT_EQ(sink.dropped(), dropped) << "step " << step;
      ASSERT_EQ(sink.total_recorded(), total) << "step " << step;
      ASSERT_EQ(sink.epochs(), epochs) << "step " << step;
      ASSERT_LE(sink.storage_bytes(), capacity * sizeof(TraceEvent)) << "step " << step;
    }
    if (capacity > 0) {
      EXPECT_GT(evictions, 20 * capacity);
    }
  }
}

TEST(TraceEventTypeTest, ToStringFromStringRoundTripsAllEnumerators) {
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    TraceEventType type = static_cast<TraceEventType>(i);
    const char* name = TraceEventTypeToString(type);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "enumerator " << i << " has no name";
    TraceEventType back;
    ASSERT_TRUE(TraceEventTypeFromString(name, &back)) << name;
    EXPECT_EQ(back, type) << name;
  }
  // Names must be unique, or FromString could not invert ToString.
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    for (int j = i + 1; j < kNumTraceEventTypes; ++j) {
      EXPECT_STRNE(TraceEventTypeToString(static_cast<TraceEventType>(i)),
                   TraceEventTypeToString(static_cast<TraceEventType>(j)));
    }
  }
  TraceEventType unused;
  EXPECT_FALSE(TraceEventTypeFromString("not_an_event", &unused));
  EXPECT_FALSE(TraceEventTypeFromString("", &unused));
}

// --- The trace digest's fold (FoldTraceEvent) ---

uint64_t FoldWindow(const std::vector<TraceEvent>& window) {
  uint64_t hash = kFnv1aOffsetBasis;
  for (const TraceEvent& e : window) {
    hash = FoldTraceEvent(hash, e);
  }
  return hash;
}

// A record with every field drawn at random: a time under 2^40 us, any type,
// and args spanning all 32 bits.
TraceEvent RandomRecord(Rng& rng) {
  return TraceEvent{Instant() + Microseconds(rng.UniformInt(0, (int64_t{1} << 40) - 1)),
                    static_cast<TraceEventType>(rng.UniformInt(0, kNumTraceEventTypes - 1)),
                    static_cast<int32_t>(static_cast<uint32_t>(rng.Next())),
                    static_cast<int32_t>(static_cast<uint32_t>(rng.Next())),
                    static_cast<int32_t>(static_cast<uint32_t>(rng.Next()))};
}

// Every field lands in one word of a bijective step, so changing any one
// field of a record changes its fold, whatever the record and start value.
TEST(TraceDigestTest, ChangingAnyOneFieldChangesTheFold) {
  Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    const uint64_t start = rng.Next();
    const TraceEvent e = RandomRecord(rng);
    const uint64_t base = FoldTraceEvent(start, e);
    for (int arg = 0; arg < 3; ++arg) {
      for (int bit = 0; bit < 32; ++bit) {
        TraceEvent changed = e;
        int32_t* args[] = {&changed.arg0, &changed.arg1, &changed.arg2};
        *args[arg] = static_cast<int32_t>(static_cast<uint32_t>(*args[arg]) ^ (1u << bit));
        ASSERT_NE(FoldTraceEvent(start, changed), base) << "arg" << arg << " bit " << bit;
      }
    }
    for (int k = 0; k < 40; ++k) {
      for (int64_t sign : {1, -1}) {
        TraceEvent changed = e;
        changed.time = e.time + Microseconds(sign * (int64_t{1} << k));
        ASSERT_NE(FoldTraceEvent(start, changed), base) << "time " << sign << " * 2^" << k;
      }
    }
    for (int t = 0; t < kNumTraceEventTypes; ++t) {
      if (t == static_cast<int>(e.type)) {
        continue;
      }
      TraceEvent changed = e;
      changed.type = static_cast<TraceEventType>(t);
      ASSERT_NE(FoldTraceEvent(start, changed), base) << "type " << t;
    }
  }
}

// A multiply passes a difference in bit 63 through unchanged, and the step's
// fold copies it to bit 31. With the type in the low half of the arg0 word
// (arg0's sign bit at bit 63), flipping the sign bits of arg0, arg1 and arg2
// together would cancel in the next word. With the type high it must not.
TEST(TraceDigestTest, FlippingAllThreeArgSignBitsChangesTheFold) {
  Rng rng(23);
  for (int trial = 0; trial < 10000; ++trial) {
    const uint64_t start = rng.Next();
    const TraceEvent e = RandomRecord(rng);
    TraceEvent flipped = e;
    for (int32_t* arg : {&flipped.arg0, &flipped.arg1, &flipped.arg2}) {
      *arg = static_cast<int32_t>(static_cast<uint32_t>(*arg) ^ 0x80000000u);
    }
    ASSERT_NE(FoldTraceEvent(start, flipped), FoldTraceEvent(start, e)) << "trial " << trial;
  }
}

TEST(TraceDigestTest, SwappingTwoDistinctAdjacentRecordsChangesTheDigest) {
  Rng rng(29);
  std::vector<TraceEvent> window;
  for (int i = 0; i < 64; ++i) {
    window.push_back(RandomRecord(rng));
  }
  // Also neighbours that differ in one field only.
  window.push_back(window.back());
  window.back().arg2 ^= 1;
  window.push_back(window.back());
  window.back().type = TraceEventType::kIrq;
  const uint64_t digest = FoldWindow(window);
  for (size_t i = 0; i + 1 < window.size(); ++i) {
    if (SameEvent(window[i], window[i + 1])) {
      continue;
    }
    std::vector<TraceEvent> swapped = window;
    std::swap(swapped[i], swapped[i + 1]);
    EXPECT_NE(FoldWindow(swapped), digest) << "swapped records " << i << " and " << i + 1;
  }
}

// A known answer: an edit of FoldWord or FoldTraceEvent fails here, by name,
// before it moves any golden run digest.
TEST(TraceDigestTest, FixedWindowFoldsToItsKnownAnswer) {
  const std::vector<TraceEvent> window = {
      {Instant() + Microseconds(1), TraceEventType::kJobRelease, 3, 1, 0},
      {Instant() + Microseconds(250), TraceEventType::kContextSwitch, -1, 3, 0},
      {Instant() + Microseconds(1250), TraceEventType::kOverheadSpan, OverheadSpanPack(2, 1),
       -1000, 4},
  };
  EXPECT_EQ(FoldWindow(window), 0x1777a092248fc3efULL);
}

// Reads `f` back into a string (the CSV/dump tests write to tmpfile()).
std::string ReadAll(std::FILE* f) {
  std::rewind(f);
  std::string text;
  char buf[1024];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  return text;
}

size_t CountLines(const std::string& text) {
  size_t lines = 0;
  for (char c : text) {
    if (c == '\n') {
      ++lines;
    }
  }
  return lines;
}

void FillSink(TraceSink& sink, int events) {
  for (int i = 0; i < events; ++i) {
    sink.Record(Instant() + Microseconds(i), TraceEventType::kContextSwitch, i - 1, i);
  }
}

TEST(TraceSinkTest, ExportCsvRowCountsAtCapacityBoundaries) {
  struct Case {
    int events;
    size_t expected_rows;
    bool expect_drop_note;
  };
  // Capacity 4: empty, one row, exactly full, wrapped.
  for (const Case& c : {Case{0, 0, false}, Case{1, 1, false}, Case{4, 4, false},
                        Case{7, 4, true}}) {
    TraceSink sink(4);
    FillSink(sink, c.events);
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(sink.ExportCsv(f), c.expected_rows) << c.events << " events";
    std::string text = ReadAll(f);
    std::fclose(f);
    // Header + rows + optional "# dropped=N" trailer.
    EXPECT_EQ(CountLines(text), 1 + c.expected_rows + (c.expect_drop_note ? 1 : 0))
        << c.events << " events";
    EXPECT_EQ(text.rfind("time_us,event,arg0,arg1,arg2\n", 0), 0u);
    EXPECT_EQ(text.find("# dropped=") != std::string::npos, c.expect_drop_note)
        << c.events << " events";
  }
}

TEST(TraceSinkTest, ExportCsvWrappedKeepsNewestRows) {
  TraceSink sink(4);
  FillSink(sink, 7);  // events 3..6 survive
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  sink.ExportCsv(f);
  std::string text = ReadAll(f);
  std::fclose(f);
  EXPECT_NE(text.find("\n3,context_switch,2,3,0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\n6,context_switch,5,6,0\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("\n2,context_switch"), std::string::npos) << text;
  EXPECT_NE(text.find("# dropped=3\n"), std::string::npos) << text;
}

TEST(TraceSinkTest, DumpWritesToGivenStream) {
  TraceSink sink(4);
  sink.Record(Instant() + Microseconds(5), TraceEventType::kJobRelease, 2, 0);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  sink.Dump(f);
  std::string text = ReadAll(f);
  std::fclose(f);
  EXPECT_NE(text.find("job_release"), std::string::npos) << text;
}

TEST(TraceSinkTest, DumpNotesDroppedEvents) {
  TraceSink sink(2);
  FillSink(sink, 5);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  sink.Dump(f);
  std::string text = ReadAll(f);
  std::fclose(f);
  EXPECT_NE(text.find("3 of 5 events dropped"), std::string::npos) << text;
}

// The retention bound is not an allocation: a sink sized for a 2 s fleet
// node (4096 + 1536 records per virtual ms) that records only 1000 events
// holds storage for at most 2048 of them.
TEST(TraceSinkTest, StorageFollowsRecordsNotCapacity) {
  TraceSink sink(4096 + 1536 * 2000);
  EXPECT_EQ(sink.storage_bytes(), 0u);
  FillSink(sink, 1000);
  EXPECT_EQ(sink.size(), 1000u);
  EXPECT_LE(sink.storage_bytes(), 2048 * sizeof(TraceEvent));
}

// A drained window keeps its storage for the records that follow, and the
// drained records count as neither retained nor dropped.
TEST(TraceSinkTest, DrainKeepsStorageAndDropsNothing) {
  TraceSink sink(4096);
  FillSink(sink, 300);
  const size_t storage = sink.storage_bytes();
  sink.Drain();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.storage_bytes(), storage);
  FillSink(sink, 200);
  EXPECT_EQ(sink.size(), 200u);
  EXPECT_EQ(sink.at(0).arg1, 0);
  EXPECT_EQ(sink.storage_bytes(), storage);
  EXPECT_EQ(sink.total_recorded(), sink.size() + sink.dropped() + 300);
}

// What `write` puts in a temporary file.
std::string Written(const std::function<void(std::FILE*)>& write) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  write(f);
  std::string text = ReadAll(f);
  std::fclose(f);
  return text;
}

// After its first wrap a window is a ring over exactly `capacity` slots: it
// allocates nothing more, and every reader agrees with a deque of the last
// `capacity` records wherever it looks: right after the wrap, in mid-ring
// and after more records, and after Reset and Clear.
TEST(TraceSinkTest, WrappedRingAllocatesNothingAndReadsOldestFirst) {
  constexpr size_t kCapacity = 8;
  TraceSink sink(kCapacity);
  std::deque<TraceEvent> window;
  uint64_t dropped = 0;
  int next = 0;
  auto record = [&](int n) {
    for (int k = 0; k < n; ++k, ++next) {
      TraceEvent e{Instant() + Microseconds(next), TraceEventType::kIrq, next, -next, next % 3};
      sink.Record(e.time, e.type, e.arg0, e.arg1, e.arg2);
      if (window.size() == kCapacity) {
        window.pop_front();
        ++dropped;
      }
      window.push_back(e);
    }
  };
  auto expect_window = [&](const char* when) {
    SCOPED_TRACE(when);
    ASSERT_EQ(sink.size(), window.size());
    for (size_t i = 0; i < window.size(); ++i) {
      EXPECT_TRUE(SameEvent(sink.at(i), window[i])) << "at " << i;
    }
    std::span<const TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), window.size());
    for (size_t i = 0; i < window.size(); ++i) {
      EXPECT_TRUE(SameEvent(events[i], window[i])) << "events()[" << i << "]";
    }
    EXPECT_EQ(sink.dropped(), dropped);
    const std::vector<TraceEvent> expected(window.begin(), window.end());
    EXPECT_EQ(Written([&](std::FILE* f) { sink.ExportCsv(f); }),
              Written([&](std::FILE* f) { WriteTraceCsv(f, expected, dropped); }));
  };

  record(kCapacity);
  const size_t full = sink.storage_bytes();
  EXPECT_EQ(full, kCapacity * sizeof(TraceEvent));
  record(1);
  expect_window("right after the first wrap");
  const TraceEvent* storage = sink.events().data();
  record(3);
  expect_window("in mid-ring");
  record(5);
  expect_window("after a mid-ring read and more records");

  const Instant reset_at = Instant() + Microseconds(next);
  sink.Reset(reset_at);
  window.assign(1, TraceEvent{reset_at, TraceEventType::kTraceEpoch, 1, 0, 0});
  dropped = 0;
  expect_window("after Reset");
  record(2 * kCapacity + 3);
  expect_window("after Reset and more wraps");

  sink.Clear();
  window.clear();
  dropped = 0;
  expect_window("after Clear");
  record(kCapacity + 2);
  expect_window("after Clear and a wrap");
  EXPECT_EQ(sink.total_recorded(), kCapacity + 2);

  EXPECT_EQ(sink.storage_bytes(), full);
  EXPECT_EQ(sink.events().data(), storage);
}

// A consumer of a drained sink must have seen the whole run.
TEST(TraceSinkDeathTest, DrainAfterDroppedRecordsPanics) {
  TraceSink sink(4);
  FillSink(sink, 5);
  EXPECT_DEATH(sink.Drain(), "drained a trace window that dropped records");
}

}  // namespace
}  // namespace emeralds
