// apnabench_selftest — the benchmark's own tests.
//
//   apnabench_selftest <scratch-dir>
//
// 1. Percentile, windowed-median and histogram math against known inputs.
// 2. Tracer self-time and parent links.
// 3. Seed determinism: same seed → byte-identical generated inputs; a
//    different seed → different inputs (every workload).
// 4. A short traced run of every workload (shrunk world) with every output
//    check, then the privacy rule: neither the trace file nor the printed
//    report may contain any EphID of the run (hex or raw bytes) or an
//    address.
// Exit code 0 only when everything passed.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "stats.h"
#include "trace.h"
#include "crypto/sha2.h"
#include "util/alloc_count_hook.h"
#include "util/hex.h"
#include "world.h"

namespace apnabench {
std::uint64_t heap_allocs() { return apna::util::heap_alloc_count(); }
}  // namespace apnabench

using namespace apnabench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> v{5, 1, 4, 2, 3};
  expect(near(percentile(v, 0.0), 1), "p0 of 1..5");
  expect(near(percentile(v, 1.0), 5), "p100 of 1..5");
  expect(near(percentile(v, 0.5), 3), "median of 1..5");
  expect(near(percentile(v, 0.25), 2), "p25 of 1..5");
  std::vector<double> two{10, 20};
  expect(near(percentile(two, 0.5), 15), "interpolated median of {10,20}");
  expect(near(percentile(two, 0.99), 19.9), "interpolated p99 of {10,20}");
  std::vector<double> none;
  expect(near(percentile(none, 0.5), 0), "percentile of nothing is 0");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  expect(near(percentile(hundred, 0.99), 100), "p99 of 1..101");

  // Windows: three windows of 10 ns; window medians 1, 10, 100.5.
  WindowedSamples w(3, 0, 30);
  for (const double x : {0.0, 1.0, 2.0}) w.add(1, x);
  for (const double x : {9.0, 10.0, 11.0}) w.add(15, x);
  for (const double x : {99.0, 100.0, 101.0}) w.add(29, x);
  w.add(1000, 101.0);  // clamps into the last window
  expect(w.count() == 10, "windowed sample count");
  const std::vector<double> medians = w.window_quantiles(0.5, 1);
  expect(medians.size() == 3 && near(medians[0], 1) && near(medians[1], 10) &&
             near(medians[2], 100.5),
         "per-window medians");
  expect(w.window_quantiles(0.5, 4).size() == 1, "small windows are skipped");

  // Two rounds of two 1-s windows: rates 10, 20 | 30, 40.
  std::vector<WindowedCounter> rounds;
  rounds.emplace_back(2, 0, 2'000'000'000);
  rounds.emplace_back(2, 10'000'000'000, 2'000'000'000);
  rounds[0].add(500'000'000, 10);
  rounds[0].add(1'500'000'000, 20);
  rounds[1].add(10'500'000'000, 30);
  rounds[1].add(11'500'000'000, 40);
  expect(near(rate_over_windows(rounds, 0.5), 25), "median window rate over rounds");
  expect(near(rate_over_windows(rounds, 0.75), 32.5), "upper-quartile window rate");

  std::vector<WindowedSamples> lat;
  lat.emplace_back(1, 0, 10);
  lat.emplace_back(1, 100, 10);
  for (const double x : {1.0, 2.0, 3.0}) lat[0].add(5, x);
  for (const double x : {7.0, 8.0, 9.0}) lat[1].add(105, x);
  expect(near(quantile_over_windows(lat, 0.5, 0.5, 1), 5), "median of round medians");
  expect(near(quantile_over_windows(lat, 0.5, 0.25, 1), 3.5),
         "lower quartile of round medians");
  expect(near(quantile_over_windows(lat, 0.5, 0.5, 10), pooled(lat, 0.5)),
         "too-small windows fall back to the pooled quantile");
  expect(near(pooled(lat, 1.0), 9), "pooled maximum over rounds");
}

void test_histogram() {
  expect(Log2Histogram::bucket_of(0) == 0, "bucket of 0");
  expect(Log2Histogram::bucket_of(1) == 1, "bucket of 1");
  expect(Log2Histogram::bucket_of(2) == 2 && Log2Histogram::bucket_of(3) == 2,
         "buckets of 2 and 3");
  expect(Log2Histogram::bucket_of(1024) == 11, "bucket of 1024");
  Log2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(5);    // bucket 3: [4, 8)
  for (int i = 0; i < 10; ++i) h.add(100);  // bucket 7: [64, 128)
  expect(h.count() == 100, "histogram count");
  expect(h.bucket(3) == 90 && h.bucket(7) == 10, "histogram buckets");
  std::uint64_t sum = 0;
  for (std::size_t b = 0; b < 65; ++b) sum += h.bucket(b);
  expect(sum == h.count(), "buckets sum to the count");
  Log2Histogram top;
  top.add(~0ull);
  expect(top.bucket(64) == 1, "largest value lands in the last bucket");
}

void test_tracer() {
  Tracer t(Role::egress, 16);
  t.begin(Layer::router_egress, 7, 0);
  t.begin(Layer::net_tx, 7, 10);
  t.end(30);
  t.begin(Layer::net_tx, 8, 40);
  t.end(45);
  t.end(100);
  const auto& outer = t.totals(Layer::router_egress);
  const auto& inner = t.totals(Layer::net_tx);
  expect(outer.spans == 1 && outer.total_ns == 100 && outer.self_ns == 75,
         "self time = duration minus children");
  expect(inner.spans == 2 && inner.total_ns == 25 && inner.self_ns == 25,
         "leaf self time = duration");
  expect(t.spans().size() == 3, "kept spans");
  expect(t.spans()[1].parent == 0 && t.spans()[2].parent == 0 &&
             t.spans()[0].parent == Tracer::kNoParent,
         "parent links");
  Tracer small(Role::egress, 1);
  small.begin(Layer::net_rx, 1, 0);
  small.end(5);
  small.begin(Layer::net_rx, 2, 5);
  small.end(9);
  expect(small.spans().size() == 1 && small.not_kept() == 1 &&
             small.totals(Layer::net_rx).spans == 2,
         "totals stay exact past the span buffer");
}

void test_payload() {
  std::uint8_t buf[kPayloadFields];
  write_payload(buf, PayloadFields{123456789012ull, -42, 77, Phase::open});
  const PayloadFields f = read_payload(buf);
  expect(f.seq == 123456789012ull && f.sched_ns == -42 && f.flow == 77 &&
             f.phase == Phase::open,
         "payload round trip");
}

/// SHA-256 (hex) of the workload's generated client-side inputs for `seed`.
std::string input_digest(const std::string& workload, std::uint64_t seed,
                         bool small) {
  constexpr double kOpenS = 2.0;
  crypto::Sha256 h;
  if (workload == "fwd_hot_small") {
    digest_into(h, make_fwd_inputs(hot_small_spec(small), seed, kOpenS));
  } else if (workload == "fwd_cold_large") {
    digest_into(h, make_fwd_inputs(cold_large_spec(small), seed, kOpenS));
  } else if (workload == "shutoff_storm") {
    digest_into(h, make_shutoff_inputs(shutoff_spec(small), seed, kOpenS));
  } else if (workload == "issuance") {
    const IssueSpec s = issue_spec(small);
    digest_into(h, make_issue_inputs(s.hosts, s.requests, s.open_rate_per_s, seed, kOpenS));
  } else {
    return "";
  }
  const auto d = h.finish();
  return apna::hex_encode(apna::ByteSpan(d.data(), d.size()));
}

void test_determinism() {
  for (const std::string& w : workload_names()) {
    const std::string a = input_digest(w, 7, true);
    const std::string b = input_digest(w, 7, true);
    const std::string c = input_digest(w, 8, true);
    expect(!a.empty() && a == b, w + ": same seed gives identical inputs");
    expect(a != c, w + ": different seeds give different inputs");
  }
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Every EphID the run's inputs contain.
std::vector<wire::EphIdBytes> run_ephids(const std::string& w, std::uint64_t seed,
                                         double open_s) {
  std::vector<wire::EphIdBytes> out;
  const auto add_flows = [&](const FwdInputs& in) {
    for (const FlowInput& f : in.flows) {
      out.push_back(f.src);
      out.push_back(f.dst);
    }
  };
  if (w == "fwd_hot_small") add_flows(make_fwd_inputs(hot_small_spec(true), seed, open_s));
  if (w == "fwd_cold_large") add_flows(make_fwd_inputs(cold_large_spec(true), seed, open_s));
  if (w == "shutoff_storm")
    add_flows(make_shutoff_inputs(shutoff_spec(true), seed, open_s).fwd);
  if (w == "issuance") {
    const IssueSpec s = issue_spec(true);
    for (const core::EphId& e :
         make_issue_inputs(s.hosts, s.requests, s.open_rate_per_s, seed, open_s).ctrl)
      out.push_back(e.bytes);
  }
  return out;
}

/// Occurrences of any of `ephids` in `text`: as hex (any 8-byte prefix is
/// already a linkable identifier) or as raw bytes.
std::size_t ephid_leaks(const std::string& text,
                        const std::vector<wire::EphIdBytes>& ephids) {
  std::unordered_set<std::string> hex_prefixes;
  for (const wire::EphIdBytes& e : ephids)
    hex_prefixes.insert(apna::hex_encode(apna::ByteSpan(e.data(), 8)));
  std::size_t leaks = 0;
  // Hex: every 16-character window of every run of hex digits.
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t j = i;
    while (j < text.size() && std::isxdigit(static_cast<unsigned char>(text[j]))) ++j;
    for (std::size_t k = i; k + 16 <= j; ++k) {
      std::string window = text.substr(k, 16);
      for (char& c : window) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      if (hex_prefixes.count(window)) ++leaks;
    }
    i = j + 1;
  }
  // Raw: only possible where the text is not printable ASCII, or for an
  // EphID that happens to be all printable.
  bool printable = true;
  for (const char c : text)
    if (c != '\n' && (static_cast<unsigned char>(c) < 0x20 || static_cast<unsigned char>(c) > 0x7e))
      printable = false;
  for (const wire::EphIdBytes& e : ephids) {
    bool e_printable = true;
    for (const std::uint8_t b : e) e_printable = e_printable && b >= 0x20 && b <= 0x7e;
    if (!printable || e_printable) {
      const std::string raw(reinterpret_cast<const char*>(e.data()), e.size());
      if (text.find(raw) != std::string::npos) ++leaks;
    }
  }
  return leaks;
}

void test_short_runs(const std::string& dir) {
  for (const std::string& w : workload_names()) {
    Options opt;
    opt.workload = w;
    opt.seed = 11;
    opt.seconds = 2;
    opt.trace = true;
    opt.small = true;
    opt.trace_path = dir + "/selftest-" + w + ".jsonl";
    Report rep;
    std::string error;
    if (!run_workload(opt, rep, error)) {
      expect(false, w + ": run failed: " + error);
      continue;
    }
    const std::string printed = render(opt, rep);
    for (const std::string& v : rep.violations) expect(false, w + ": " + v);
    expect(rep.failed == 0, w + ": failed operations");
    expect(rep.attempted > 0, w + ": nothing attempted");
    for (const MetricDef& m : per_layer_metrics())
      expect(printed.find("\"" + std::string(m.name) + "\":{\"value\":") != std::string::npos,
             w + ": per-layer metric missing: " + m.name);

    // Privacy rule: no EphID (hex or raw), no address in any output.
    const std::string trace = slurp(opt.trace_path);
    expect(!trace.empty(), w + ": trace written");
    const std::vector<wire::EphIdBytes> ephids = run_ephids(w, opt.seed, 0.5 * opt.seconds);
    expect(!ephids.empty(), w + ": EphIDs enumerated");
    const std::size_t leaks = ephid_leaks(trace, ephids) + ephid_leaks(printed, ephids);
    expect(ephid_leaks("{\"id\":\"" +
                           apna::hex_encode(apna::ByteSpan(ephids.back().data(), 16)) + "\"}",
                       ephids) > 0,
           w + ": the scan finds a planted EphID");
    expect(leaks == 0, w + ": EphID bytes found in the trace or the report");
    expect(trace.find("127.0.0.1") == std::string::npos &&
               printed.find("127.0.0.1") == std::string::npos,
           w + ": address found in the trace or the report");
    std::printf("ok: %s short run (%llu attempted, %zu EphIDs scanned)\n", w.c_str(),
                static_cast<unsigned long long>(rep.attempted), ephids.size());
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: apnabench_selftest <scratch-dir>\n");
    return 2;
  }
  const auto step = [](const char* name, void (*fn)()) {
    std::printf("== %s\n", name);
    std::fflush(stdout);
    fn();
  };
  step("percentiles and windows", test_percentiles);
  step("histogram", test_histogram);
  step("tracer", test_tracer);
  step("payload", test_payload);
  step("seed determinism", test_determinism);
  std::printf("== short runs\n");
  std::fflush(stdout);
  test_short_runs(argv[1]);
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
