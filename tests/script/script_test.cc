// Script / code-parser tests (Section 6.2.1): hint instrumentation and
// script execution through the kernel.

#include <gtest/gtest.h>

#include "src/script/script.h"
#include "tests/testing/kernel_env.h"

namespace emeralds {
namespace {

TEST(InstrumentTest, BlockingCallBeforeAcquireGetsHint) {
  SemId s(3);
  Script script;
  script.actions = {
      Action::Compute(Milliseconds(1)),
      Action::WaitPeriod(),
      Action::Acquire(s),
      Action::Release(s),
  };
  EXPECT_EQ(Instrument(script), 1);
  EXPECT_EQ(script.actions[1].next_sem_hint, s);
}

TEST(InstrumentTest, ComputeBetweenIsLookedThrough) {
  SemId s(1);
  Script script;
  script.actions = {
      Action::WaitPeriod(),
      Action::Compute(Milliseconds(2)),  // straight-line code before acquire
      Action::Acquire(s),
      Action::Release(s),
  };
  Instrument(script);
  EXPECT_EQ(script.actions[0].next_sem_hint, s);
}

TEST(InstrumentTest, InterveningBlockingCallStopsScan) {
  SemId s(1);
  Script script;
  script.actions = {
      Action::WaitPeriod(),
      Action::Sleep(Milliseconds(1)),  // a second blocking call
      Action::Acquire(s),
      Action::Release(s),
  };
  Instrument(script);
  EXPECT_EQ(script.actions[0].next_sem_hint, kNoSem);  // sleep intervenes
  EXPECT_EQ(script.actions[1].next_sem_hint, s);       // sleep carries it
}

TEST(InstrumentTest, NoAcquireMeansMinusOne) {
  Script script;
  script.actions = {
      Action::WaitPeriod(),
      Action::Compute(Milliseconds(1)),
  };
  // With no acquire anywhere in the loop the scan wraps, hits the blocking
  // call again, and leaves the hint at -1 (kNoSem).
  EXPECT_EQ(Instrument(script), 0);
  EXPECT_EQ(script.actions[0].next_sem_hint, kNoSem);
}

TEST(InstrumentTest, WrapsAroundLoopBoundary) {
  SemId s(2);
  Script script;
  // Acquire at the head of the loop; the blocking call is at the tail.
  script.actions = {
      Action::Acquire(s),
      Action::Compute(Milliseconds(1)),
      Action::Release(s),
      Action::WaitPeriod(),
  };
  Instrument(script);
  EXPECT_EQ(script.actions[3].next_sem_hint, s);
}

TEST(InstrumentTest, ReturnsZeroWhenNothingToDo) {
  Script script;
  script.actions = {Action::Compute(Milliseconds(1))};
  EXPECT_EQ(Instrument(script), 0);
}

TEST(InstrumentTest, MultipleBlockingCallsEachScanned) {
  SemId s1(1);
  SemId s2(2);
  Script script;
  script.actions = {
      Action::WaitPeriod(),
      Action::Acquire(s1),
      Action::Release(s1),
      Action::Sleep(Milliseconds(1)),
      Action::Acquire(s2),
      Action::Release(s2),
  };
  EXPECT_EQ(Instrument(script), 2);
  EXPECT_EQ(script.actions[0].next_sem_hint, s1);
  EXPECT_EQ(script.actions[3].next_sem_hint, s2);
}

TEST(ScriptRunTest, InstrumentedScriptTriggersCse) {
  // The CSE scenario of Figure 6 built entirely from scripts: the parser
  // inserts the hint, the kernel saves the context switch.
  KernelConfig config = ZeroCostConfig();
  config.default_sem_mode = SemMode::kCse;
  SimEnv env(config);
  SemId sem = env.k().CreateSemaphore("S").value();

  Script t2_script;
  t2_script.actions = {
      Action::Acquire(sem),
      Action::Compute(Milliseconds(1)),
      Action::Release(sem),
      Action::WaitPeriod(),
  };
  ASSERT_EQ(Instrument(t2_script), 1);
  ThreadParams t2;
  t2.name = "T2";
  t2.period = Milliseconds(10);
  t2.body = MakeScriptBody(t2_script);
  env.k().CreateThread(t2);

  Script t1_script;
  t1_script.actions = {
      Action::Compute(Milliseconds(8)),
      Action::Acquire(sem),
      Action::Compute(Milliseconds(3)),
      Action::Release(sem),
      Action::WaitPeriod(),
  };
  Instrument(t1_script);
  ThreadParams t1;
  t1.name = "T1";
  t1.period = Milliseconds(50);
  t1.body = MakeScriptBody(t1_script);
  env.k().CreateThread(t1);

  env.StartAndRunFor(Milliseconds(15));
  EXPECT_EQ(env.k().stats().cse_early_pi, 1u);
  EXPECT_EQ(env.k().stats().cse_switches_saved, 1u);
}

TEST(ScriptRunTest, FiniteIterationsTerminate) {
  SimEnv env(ZeroCostConfig());
  Script script;
  script.actions = {Action::Compute(Milliseconds(1)), Action::Sleep(Milliseconds(1))};
  script.iterations = 3;
  ThreadParams params;
  params.name = "loop3";
  params.body = MakeScriptBody(script);
  ThreadId id = env.k().CreateThread(params).value();
  env.StartAndRunFor(Milliseconds(20));
  EXPECT_EQ(env.k().thread(id).state, ThreadState::kFinished);
  EXPECT_EQ(env.k().thread(id).cycles.at(CycleBucket::kUser).millis(), 3);
}

TEST(ScriptRunTest, IpcActionsExecute) {
  SimEnv env(ZeroCostConfig());
  MailboxId mbox = env.k().CreateMailbox("m", 4).value();
  SmsgId smsg = env.k().CreateStateMessage("s", 8, 3).value();

  Script producer;
  producer.actions = {
      Action::StateWrite(smsg, 8),
      Action::Send(mbox, 4),
      Action::Sleep(Milliseconds(1)),
  };
  producer.iterations = 5;
  ThreadParams p;
  p.name = "producer";
  p.body = MakeScriptBody(producer);
  env.k().CreateThread(p);

  Script consumer;
  consumer.actions = {
      Action::Recv(mbox, 4),
      Action::StateRead(smsg, 8),
  };
  consumer.iterations = 5;
  ThreadParams c;
  c.name = "consumer";
  c.body = MakeScriptBody(consumer);
  env.k().CreateThread(c);

  env.StartAndRunFor(Milliseconds(20));
  EXPECT_EQ(env.k().stats().mailbox_sends, 5u);
  EXPECT_EQ(env.k().stats().mailbox_receives, 5u);
  EXPECT_EQ(env.k().stats().smsg_writes, 5u);
}

}  // namespace
}  // namespace emeralds
