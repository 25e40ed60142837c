// Span recording at the benchmark's call boundaries into the program's
// layers (the traced run only).
//
// Each driver thread owns one Tracer: begin()/end() around a call into a
// layer record a span {layer, thread role, id, start, end, parent}. The id
// is a bench sequence number (packet seq, request index, shutoff index) and
// the labels come from the closed enums below, so a trace can never carry
// a HID, EphID, address, port or domain name. Self time — a span's
// duration minus the part its child spans cover — is accumulated exactly
// for every span; the span records themselves are kept in a buffer reserved
// up front (no allocation while measuring) and written once, at exit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace apnabench {

enum class Layer : std::uint8_t {
  net_rx,           // UdpTransport::poll that delivered datagrams
  net_tx,           // UdpTransport::send inside a BR callback
  router_egress,    // ForwardingPool::process_outgoing
  router_ingress,   // ForwardingPool::process_ingress
  services_issue,   // ServicePool::process_issuance
  services_shutoff, // ServicePool::process_shutoffs
  persist_commit,   // PersistCoordinator::commit
  kCount,
};

enum class Role : std::uint8_t { generator, egress, ingress, control, kCount };

const char* layer_name(Layer l);
const char* role_name(Role r);

struct Span {
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  // index into the same thread's spans, or kNoParent
  Layer layer = Layer::net_rx;
  Role role = Role::generator;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  static constexpr std::size_t kMaxDepth = 8;

  struct Totals {
    std::uint64_t spans = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    Log2Histogram self_hist;  // per-span self time, ns
  };

  /// Keeps at most `span_capacity` span records (reserved now); totals are
  /// exact regardless.
  Tracer(Role role, std::size_t span_capacity);

  void begin(Layer layer, std::uint64_t id, std::int64_t now_ns);
  void end(std::int64_t now_ns);

  Role role() const { return role_; }
  const Totals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Spans counted in the totals but not kept (buffer full).
  std::uint64_t not_kept() const { return not_kept_; }

 private:
  struct Open {
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::uint64_t id = 0;
    std::uint32_t kept_index = kNoParent;
    Layer layer = Layer::net_rx;
  };

  Role role_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::array<Open, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::array<Totals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::uint64_t not_kept_ = 0;
};

/// Writes every tracer's kept spans as JSON lines, preceded by one header
/// line (`header_json`, a JSON object) and followed by one summary line per
/// (role, layer) with span count, total/self time and the self-time log2
/// histogram. Returns false when the file cannot be written.
bool write_trace(const std::string& path, const std::string& header_json,
                 const std::vector<const Tracer*>& tracers);

}  // namespace apnabench
