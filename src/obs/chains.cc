#include "src/obs/chains.h"

#include <cstdio>

#include "src/hal/trace.h"
#include "src/obs/json_writer.h"

namespace emeralds {
namespace obs {

const char* ChainViolationKindToString(ChainViolationKind kind) {
  switch (kind) {
    case ChainViolationKind::kOrphanConsume:
      return "orphan_consume";
    case ChainViolationKind::kOriginReuse:
      return "origin_reuse";
    case ChainViolationKind::kMalformedToken:
      return "malformed_token";
  }
  return "?";
}

namespace {

void AppendChainHistogram(Json& j, const char* name, const Log2Histogram& h) {
  j.Key(name);
  j.OpenObject();
  j.Int("count", static_cast<int64_t>(h.count()));
  j.Number("min_us", h.count() > 0 ? h.min().micros_f() : 0.0);
  j.Number("max_us", h.count() > 0 ? h.max().micros_f() : 0.0);
  j.Number("mean_us", h.mean().micros_f());
  j.Number("p99_us", h.PercentileBound(0.99).micros_f());
  j.Number("total_us", h.total().micros_f());
  j.CloseObject();
}

}  // namespace

void AppendChainsSection(Json& j, const ChainAnalysis& a) {
  j.OpenObject();
  j.Bool("complete_window", a.complete_window);
  j.Int("chain_emits", static_cast<int64_t>(a.chain_emits));
  j.Int("chain_consumes", static_cast<int64_t>(a.chain_consumes));
  j.Int("origins_minted", static_cast<int64_t>(a.origins_minted));
  j.Int("orphan_hops", static_cast<int64_t>(a.orphan_hops));
  j.Int("saturated_hops", static_cast<int64_t>(a.saturated_hops));
  j.Int("unconsumed_emits", static_cast<int64_t>(a.unconsumed_emits));
  j.Key("chains");
  j.OpenArray();
  for (const ChainReport& c : a.chains) {
    j.OpenObject();
    j.String("name", c.name);
    j.Bool("resolved", c.resolved);
    j.Number("deadline_us", c.deadline.micros_f());
    j.Int("completed", static_cast<int64_t>(c.completed));
    j.Int("incomplete", static_cast<int64_t>(c.incomplete));
    j.Int("overruns", static_cast<int64_t>(c.overruns));
    AppendChainHistogram(j, "e2e", c.e2e);
    j.Key("hops");
    j.OpenArray();
    for (const ChainHopStats& h : c.hops) {
      j.OpenObject();
      j.String("endpoint_kind",
               ChainEndpointKindToString(ChainEndpointKindOf(h.endpoint)));
      j.Int("endpoint_id", ChainEndpointChannel(h.endpoint));
      j.Int("consumer_tid", h.consumer_tid);
      AppendChainHistogram(j, "queue", h.queue);
      AppendChainHistogram(j, "exec", h.exec);
      j.CloseObject();
    }
    j.CloseArray();
    j.CloseObject();
  }
  j.CloseArray();
  j.Key("violations");
  j.OpenArray();
  for (const ChainViolation& v : a.violations) {
    j.OpenObject();
    j.String("kind", ChainViolationKindToString(v.kind));
    j.Int("event_index", static_cast<int64_t>(v.event_index));
    j.String("detail", v.detail);
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
}

std::string BuildChainsReport(const std::string& label, const ChainAnalysis& analysis) {
  Json j;
  j.OpenObject();
  j.String("schema", kObsChainsSchema);
  j.String("label", label);
  j.Key("report");
  AppendChainsSection(j, analysis);
  j.CloseObject();
  return j.str() + "\n";
}

bool WriteChainsReportFile(const std::string& path, const std::string& label,
                           const ChainAnalysis& analysis) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::string text = BuildChainsReport(label, analysis);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace obs
}  // namespace emeralds
