// The per-packet reference for BorderRouter::classify_*_burst: one call per
// packet. A 1-packet span is always below BorderRouter::kFusedMinBurst, so
// these run the per-packet kernel whatever the burst size; tests compare
// whole-burst verdicts (the fused pipeline from kFusedMinBurst packets up)
// against them.
#pragma once

#include <cstddef>
#include <span>

#include "router/border_router.h"

namespace apna::router {

static_assert(BorderRouter::kFusedMinBurst > 1,
              "a 1-packet call must reach the per-packet kernel");

inline void classify_each_outgoing(const BorderRouter& br,
                                   std::span<const wire::PacketView> burst,
                                   core::ExpTime now,
                                   std::span<BorderRouter::Verdict> out,
                                   BorderRouter::Stats& stats,
                                   core::FlowCache* cache = nullptr) {
  for (std::size_t i = 0; i < burst.size(); ++i)
    br.classify_outgoing_burst(burst.subspan(i, 1), now, out.subspan(i, 1),
                               stats, cache);
}

inline void classify_each_ingress(const BorderRouter& br,
                                  std::span<const wire::PacketView> burst,
                                  core::ExpTime now,
                                  std::span<BorderRouter::Verdict> out,
                                  BorderRouter::Stats& stats,
                                  core::FlowCache* cache = nullptr) {
  for (std::size_t i = 0; i < burst.size(); ++i)
    br.classify_ingress_burst(burst.subspan(i, 1), now, out.subspan(i, 1),
                              stats, cache);
}

}  // namespace apna::router
