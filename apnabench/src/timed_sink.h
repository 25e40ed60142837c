// The bench-owned persist::Sink decorator: forwards every record to the
// PersistCoordinator and, while timing is on (traced runs), measures each
// append from the caller's side — coordinator-lock wait included, since the
// issuing workers contend on it — plus the records and payload bytes.
#pragma once

#include <atomic>
#include <cstdint>

#include "bench.h"
#include "persist/sink.h"

namespace apnabench {

class TimedSink final : public apna::persist::Sink {
 public:
  explicit TimedSink(apna::persist::Sink& inner) : inner_(inner) {}

  bool append(std::uint8_t type, apna::ByteSpan payload) override {
    if (!timing.load(std::memory_order_relaxed))
      return inner_.append(type, payload);
    const std::int64_t t0 = now_ns();
    const bool ok = inner_.append(type, payload);
    ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    records.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(payload.size(), std::memory_order_relaxed);
    return ok;
  }

  std::atomic<bool> timing{false};
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::uint64_t> records{0};
  std::atomic<std::uint64_t> bytes{0};

 private:
  apna::persist::Sink& inner_;
};

}  // namespace apnabench
