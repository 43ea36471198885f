#include "src/obs/postmortem.h"

#include <bit>
#include <cstdio>
#include <utility>

#include "src/hal/trace.h"
#include "src/obs/json_writer.h"
#include "src/obs/perfetto_export.h"

namespace emeralds {
namespace obs {

void BlameTotals::Merge(const BlameTotals& other) {
  misses_analyzed += other.misses_analyzed;
  conservation_failures += other.conservation_failures;
  tardiness_ns += other.tardiness_ns;
  unattributed_ns += other.unattributed_ns;
  for (const auto& [k, v] : other.victim_misses) {
    victim_misses[k] += v;
  }
  for (const auto& [k, v] : other.victim_tardiness_ns) {
    victim_tardiness_ns[k] += v;
  }
  for (const auto& [k, v] : other.preemptor_ns) {
    preemptor_ns[k] += v;
  }
  for (const auto& [k, v] : other.lock_ns) {
    lock_ns[k] += v;
  }
}

// The digest folds each value's bytes least significant first. Fnv1a reads
// them in memory order, which is the same order only on little-endian hosts.
static_assert(std::endian::native == std::endian::little,
              "BlameTotals::Digest folds uint64_t values as little-endian bytes");

uint64_t BlameTotals::Digest() const {
  // Not kFnv1aOffsetBasis: this seed is the FNV-1a offset basis missing its
  // last decimal digit. Every blame_digest ever reported starts from it.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) { h = Fnv1a(h, &v, sizeof(v)); };
  mix(misses_analyzed);
  mix(conservation_failures);
  mix(static_cast<uint64_t>(tardiness_ns));
  mix(static_cast<uint64_t>(unattributed_ns));
  auto mix_map = [&](const auto& m) {
    mix(m.size());
    for (const auto& [k, v] : m) {
      mix(static_cast<uint64_t>(k));
      mix(static_cast<uint64_t>(v));
    }
  };
  mix_map(victim_misses);
  mix_map(victim_tardiness_ns);
  mix_map(preemptor_ns);
  mix_map(lock_ns);
  return h;
}

namespace {

void AppendLedger(Json& j, const LatenessLedger& l) {
  j.OpenObject();
  j.Int("carry_in_ns", l.carry_in_ns);
  j.Int("release_latency_ns", l.release_latency_ns);
  j.Int("preemption_ns", l.preemption_ns);
  j.Int("lock_blocked_ns", l.lock_blocked_ns);
  j.Int("self_suspend_ns", l.self_suspend_ns);
  j.Int("irq_ns", l.irq_ns);
  j.Int("ipi_ns", l.ipi_ns);
  j.Int("timer_svc_ns", l.timer_svc_ns);
  j.Int("sched_ns", l.sched_ns);
  j.Int("syscall_ns", l.syscall_ns);
  j.Int("own_expected_ns", l.own_expected_ns);
  j.Int("own_overrun_ns", l.own_overrun_ns);
  j.Int("unattributed_ns", l.unattributed_ns);
  j.Int("sum_ns", l.sum_ns());
  j.Key("preemptors");
  j.OpenArray();
  for (const auto& [tid, ns] : l.preemptor_ns) {
    j.OpenObject();
    j.Int("thread", tid);
    j.Int("ns", ns);
    j.CloseObject();
  }
  j.CloseArray();
  j.Key("locks");
  j.OpenArray();
  for (const auto& [sem, ns] : l.lock_ns) {
    j.OpenObject();
    j.Int("sem", sem);
    j.Int("ns", ns);
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
}

}  // namespace

void AppendBlameTotals(Json& j, const BlameTotals& b) {
  j.OpenObject();
  j.Int("misses_analyzed", static_cast<int64_t>(b.misses_analyzed));
  j.Int("conservation_failures", static_cast<int64_t>(b.conservation_failures));
  j.Int("tardiness_ns", b.tardiness_ns);
  j.Int("unattributed_ns", b.unattributed_ns);
  j.Key("victims");
  j.OpenArray();
  for (const auto& [tid, n] : b.victim_misses) {
    j.OpenObject();
    j.Int("thread", tid);
    j.Int("misses", static_cast<int64_t>(n));
    auto it = b.victim_tardiness_ns.find(tid);
    j.Int("tardiness_ns", it != b.victim_tardiness_ns.end() ? it->second : 0);
    j.CloseObject();
  }
  j.CloseArray();
  j.Key("preemptors");
  j.OpenArray();
  for (const auto& [tid, ns] : b.preemptor_ns) {
    j.OpenObject();
    j.Int("thread", tid);
    j.Int("blamed_ns", ns);
    j.CloseObject();
  }
  j.CloseArray();
  j.Key("locks");
  j.OpenArray();
  for (const auto& [sem, ns] : b.lock_ns) {
    j.OpenObject();
    j.Int("sem", sem);
    j.Int("blamed_ns", ns);
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
}

void AppendPostmortemSection(Json& j, const PostmortemAnalysis& a, const ChainAnalysis* chains) {
  j.OpenObject();
  j.Bool("window_truncated", a.window_truncated);
  j.Int("misses_analyzed", static_cast<int64_t>(a.misses_analyzed));
  j.Int("records_dropped", static_cast<int64_t>(a.records_dropped));
  j.Int("incomplete_misses", static_cast<int64_t>(a.incomplete_misses));
  j.Int("unmatched_misses", static_cast<int64_t>(a.unmatched_misses));
  j.Int("deadline_unknown", static_cast<int64_t>(a.deadline_unknown));
  j.Int("conservation_failures", static_cast<int64_t>(a.conservation_failures));
  j.Key("blame");
  AppendBlameTotals(j, a.blame);
  j.Key("misses");
  j.OpenArray();
  for (const JobPostmortem& m : a.misses) {
    j.OpenObject();
    j.Int("thread", m.thread_id);
    j.Int("job", static_cast<int64_t>(m.job_number));
    j.Number("release_us", static_cast<double>(m.release.nanos()) / 1e3);
    j.Number("completion_us", static_cast<double>(m.completion.nanos()) / 1e3);
    j.Int("deadline_budget_ns", m.deadline_budget_ns);
    j.Int("response_ns", m.response_ns);
    j.Int("tardiness_ns", m.tardiness_ns);
    j.Bool("conserved", m.conserved);
    j.String("top_blame", m.top_blame);
    j.Key("ledger");
    AppendLedger(j, m.ledger);
    j.CloseObject();
  }
  j.CloseArray();
  j.Key("chain_overruns");
  j.OpenArray();
  if (chains != nullptr) {
    for (const ChainReport& c : chains->chains) {
      for (const ChainOverrunRecord& r : c.overrun_records) {
        j.OpenObject();
        j.String("chain", c.name);
        j.Int("origin", static_cast<int64_t>(r.origin));
        j.Number("start_us", static_cast<double>(r.start.nanos()) / 1e3);
        j.Int("e2e_ns", r.e2e.nanos());
        j.Int("deadline_ns", c.deadline.nanos());
        j.Int("overrun_ns", r.e2e.nanos() - c.deadline.nanos());
        j.Key("hop_queue_ns");
        j.OpenArray();
        for (int64_t q : r.hop_queue_ns) {
          j.IntElem(q);
        }
        j.CloseArray();
        j.Key("hop_exec_ns");
        j.OpenArray();
        for (int64_t x : r.hop_exec_ns) {
          j.IntElem(x);
        }
        j.CloseArray();
        j.CloseObject();
      }
    }
  }
  j.CloseArray();
  int64_t chain_records_dropped = 0;
  if (chains != nullptr) {
    for (const ChainReport& c : chains->chains) {
      chain_records_dropped += static_cast<int64_t>(c.overrun_records_dropped);
    }
  }
  j.Int("chain_overrun_records_dropped", chain_records_dropped);
  j.CloseObject();
}

std::string BuildPostmortemReport(const std::string& label, const PostmortemAnalysis& analysis,
                                  const ChainAnalysis* chains) {
  Json j;
  j.OpenObject();
  j.String("schema", kObsPostmortemSchema);
  j.String("label", label);
  j.Key("report");
  AppendPostmortemSection(j, analysis, chains);
  j.CloseObject();
  return j.str() + "\n";
}

void PrintPostmortem(std::FILE* out, const PostmortemAnalysis& a, const ChainAnalysis* chains) {
  std::fprintf(out, "postmortem: %llu miss(es) analyzed%s",
               static_cast<unsigned long long>(a.misses_analyzed),
               a.window_truncated ? " (window truncated)" : "");
  if (a.incomplete_misses > 0 || a.unmatched_misses > 0 || a.deadline_unknown > 0) {
    std::fprintf(out, ", %llu incomplete, %llu unmatched, %llu without deadline",
                 static_cast<unsigned long long>(a.incomplete_misses),
                 static_cast<unsigned long long>(a.unmatched_misses),
                 static_cast<unsigned long long>(a.deadline_unknown));
  }
  std::fprintf(out, "\n");
  if (a.conservation_failures > 0) {
    std::fprintf(out, "  CONSERVATION FAILURES: %llu ledger(s) did not telescope\n",
                 static_cast<unsigned long long>(a.conservation_failures));
  }
  for (const JobPostmortem& m : a.misses) {
    std::fprintf(out, "  t%d job %llu: late by %.3f us (response %.3f us, budget %.3f us)%s\n",
                 m.thread_id, static_cast<unsigned long long>(m.job_number),
                 static_cast<double>(m.tardiness_ns) / 1e3,
                 static_cast<double>(m.response_ns) / 1e3,
                 static_cast<double>(m.deadline_budget_ns) / 1e3,
                 m.conserved ? "" : "  [NOT CONSERVED]");
    const LatenessLedger& l = m.ledger;
    auto line = [&](const char* name, int64_t ns) {
      if (ns > 0) {
        std::fprintf(out, "    %-16s %12.3f us  (%5.1f%%)\n", name,
                     static_cast<double>(ns) / 1e3,
                     m.response_ns > 0 ? 100.0 * static_cast<double>(ns) /
                                             static_cast<double>(m.response_ns)
                                       : 0.0);
      }
    };
    line("carry_in", l.carry_in_ns);
    line("release_latency", l.release_latency_ns);
    for (const auto& [tid, ns] : l.preemptor_ns) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "preempt by t%d", tid);
      line(buf, ns);
    }
    for (const auto& [sem, ns] : l.lock_ns) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "blocked on S%d", sem);
      line(buf, ns);
    }
    line("self_suspend", l.self_suspend_ns);
    line("irq", l.irq_ns);
    line("ipi", l.ipi_ns);
    line("timer_svc", l.timer_svc_ns);
    line("sched", l.sched_ns);
    line("syscall", l.syscall_ns);
    line("own_expected", l.own_expected_ns);
    line("own_overrun", l.own_overrun_ns);
    line("unattributed", l.unattributed_ns);
    std::fprintf(out, "    top blame: %s\n", m.top_blame.c_str());
  }
  if (a.records_dropped > 0) {
    std::fprintf(out, "  (%llu further miss record(s) past the cap)\n",
                 static_cast<unsigned long long>(a.records_dropped));
  }
  if (chains != nullptr) {
    for (const ChainReport& c : chains->chains) {
      for (const ChainOverrunRecord& r : c.overrun_records) {
        std::fprintf(out, "  chain '%s' origin %u: e2e %.3f us over %.3f us deadline\n",
                     c.name.c_str(), r.origin, r.e2e.micros_f(), c.deadline.micros_f());
        for (size_t k = 0; k < r.hop_queue_ns.size(); ++k) {
          std::fprintf(out, "    hop %zu: queue %.3f us%s\n", k,
                       static_cast<double>(r.hop_queue_ns[k]) / 1e3, "");
          if (k < r.hop_exec_ns.size()) {
            std::fprintf(out, "    hop %zu: exec  %.3f us\n", k,
                         static_cast<double>(r.hop_exec_ns[k]) / 1e3);
          }
        }
      }
      if (c.overrun_records_dropped > 0) {
        std::fprintf(out, "  chain '%s': %llu overrun record(s) past the cap\n", c.name.c_str(),
                     static_cast<unsigned long long>(c.overrun_records_dropped));
      }
    }
  }
}

std::vector<PerfettoAnnotationSlice> PostmortemAnnotations(const PostmortemAnalysis& a) {
  std::vector<PerfettoAnnotationSlice> slices;
  slices.reserve(a.misses.size());
  for (const JobPostmortem& m : a.misses) {
    PerfettoAnnotationSlice s;
    s.begin = m.release;
    s.duration = Duration::FromNanos(m.response_ns);
    s.thread_id = m.thread_id;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "LATE job %llu: +%.1f us, top: %s",
                  static_cast<unsigned long long>(m.job_number),
                  static_cast<double>(m.tardiness_ns) / 1e3, m.top_blame.c_str());
    s.name = buf;
    slices.push_back(std::move(s));
  }
  return slices;
}

}  // namespace obs
}  // namespace emeralds
