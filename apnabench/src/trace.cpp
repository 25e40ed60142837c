#include "trace.h"

#include <cstdio>

namespace apnabench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::net_rx: return "net.rx";
    case Layer::net_tx: return "net.tx";
    case Layer::router_egress: return "router.egress";
    case Layer::router_ingress: return "router.ingress";
    case Layer::services_issue: return "services.issue";
    case Layer::services_shutoff: return "services.shutoff";
    case Layer::persist_commit: return "persist.commit";
    case Layer::kCount: break;
  }
  return "?";
}

const char* role_name(Role r) {
  switch (r) {
    case Role::generator: return "generator";
    case Role::egress: return "egress";
    case Role::ingress: return "ingress";
    case Role::control: return "control";
    case Role::kCount: break;
  }
  return "?";
}

Tracer::Tracer(Role role, std::size_t span_capacity)
    : role_(role), capacity_(span_capacity) {
  spans_.reserve(capacity_);
}

void Tracer::begin(Layer layer, std::uint64_t id, std::int64_t now_ns) {
  if (depth_ == kMaxDepth) return;  // unbalanced use; refuse to nest deeper
  Open& o = stack_[depth_++];
  o.start_ns = now_ns;
  o.child_ns = 0;
  o.id = id;
  o.layer = layer;
  o.kept_index = kNoParent;
  if (spans_.size() < capacity_) {
    Span s;
    s.id = id;
    s.start_ns = now_ns;
    s.layer = layer;
    s.role = role_;
    s.parent = depth_ >= 2 ? stack_[depth_ - 2].kept_index : kNoParent;
    o.kept_index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(s);
  } else {
    ++not_kept_;
  }
}

void Tracer::end(std::int64_t now_ns) {
  if (depth_ == 0) return;
  const Open o = stack_[--depth_];
  const std::int64_t dur = now_ns - o.start_ns;
  const std::int64_t self = dur - o.child_ns;
  Totals& t = totals_[static_cast<std::size_t>(o.layer)];
  ++t.spans;
  t.total_ns += dur;
  t.self_ns += self;
  t.self_hist.add(self > 0 ? static_cast<std::uint64_t>(self) : 0);
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  if (o.kept_index != kNoParent) spans_[o.kept_index].end_ns = now_ns;
}

bool write_trace(const std::string& path, const std::string& header_json,
                 const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header_json.c_str());
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans())
      std::fprintf(f,
                   "{\"span\":\"%s\",\"role\":\"%s\",\"id\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld}\n",
                   layer_name(s.layer), role_name(s.role),
                   static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   s.parent == Tracer::kNoParent
                       ? -1LL
                       : static_cast<long long>(s.parent));
  }
  for (const Tracer* t : tracers) {
    for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
      const Tracer::Totals& tot = t->totals(static_cast<Layer>(l));
      if (tot.spans == 0) continue;
      std::fprintf(f,
                   "{\"summary\":\"%s\",\"role\":\"%s\",\"spans\":%llu,"
                   "\"not_kept\":%llu,\"total_ns\":%lld,\"self_ns\":%lld,"
                   "\"self_ns_log2_hist\":[",
                   layer_name(static_cast<Layer>(l)), role_name(t->role()),
                   static_cast<unsigned long long>(tot.spans),
                   static_cast<unsigned long long>(t->not_kept()),
                   static_cast<long long>(tot.total_ns),
                   static_cast<long long>(tot.self_ns));
      for (std::size_t b = 0; b < 65; ++b)
        std::fprintf(f, "%s%llu", b == 0 ? "" : ",",
                     static_cast<unsigned long long>(tot.self_hist.bucket(b)));
      std::fprintf(f, "]}\n");
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace apnabench
