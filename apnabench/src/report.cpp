// Metric catalogs, provenance and the one-line JSON result.
#include <sys/resource.h>
#include <pthread.h>
#include <time.h>

#include <cstdio>
#include <exception>
#include <functional>

#include "bench.h"
#include "crypto/aes.h"
#include "world.h"

namespace apnabench {

namespace {

std::int64_t ts_ns(const timespec& ts) {
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// JSON string literal (labels here come from closed sets; quotes and
/// backslashes are escaped anyway).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts_ns(ts);
}

std::int64_t thread_cpu_ns(std::thread& t) {
  clockid_t cid;
  if (!t.joinable() || pthread_getcpuclockid(t.native_handle(), &cid) != 0) return 0;
  timespec ts{};
  clock_gettime(cid, &ts);
  return ts_ns(ts);
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts_ns(ts);
}

HostCpu host_cpu() {
  HostCpu h;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return h;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) h.total += x;
    h.steal = v[7];
  }
  std::fclose(f);
  return h;
}

double steal_share(const HostCpu& a, const HostCpu& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total);
}

void pin_thread(std::thread* t, unsigned cpu, unsigned min_cpus) {
  if (std::thread::hardware_concurrency() < min_cpus) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(t ? t->native_handle() : pthread_self(), sizeof set, &set);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"ops_per_s", "1/s", "higher"},
      {"p50_us", "us", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"net.rx_ns_per_pkt", "ns", "lower"},
      {"net.tx_ns_per_pkt", "ns", "lower"},
      {"net.pkts_per_poll", "count", "higher"},
      {"net.queue_wait_p50_us", "us", "lower"},
      {"net.queue_wait_p99_us", "us", "lower"},
      {"net.rx_rejected", "count", "lower"},
      {"net.tx_errors", "count", "lower"},
      {"wire.copy_bytes_per_pkt", "bytes", "lower"},
      {"wire.allocs_per_pkt", "count", "lower"},
      {"router.egress_ns_per_pkt", "ns", "lower"},
      {"router.ingress_ns_per_pkt", "ns", "lower"},
      {"router.burst_pkts", "count", "higher"},
      {"router.egress_hit_rate", "ratio", "higher"},
      {"router.ingress_hit_rate", "ratio", "higher"},
      {"router.evictions", "count", "lower"},
      {"core.ephid_opens_per_pkt", "count", "lower"},
      {"router.stale_gen_misses", "count", "lower"},
      {"core.epoch_bumps", "count", "lower"},
      {"router.revoke_effect_p50_us", "us", "lower"},
      {"router.revoke_effect_p99_us", "us", "lower"},
      {"router.drops", "count", "lower"},
      {"router.drop_revoked", "count", "lower"},
      {"core.host_db_bytes_per_host", "bytes", "lower"},
      {"services.issue_ns_per_req", "ns", "lower"},
      {"services.allocs_per_req", "count", "lower"},
      {"services.issue_jobs_per_call", "count", "higher"},
      {"services.issue_wait_p50_us", "us", "lower"},
      {"services.issue_wait_p99_us", "us", "lower"},
      {"services.issue_failed", "count", "lower"},
      {"services.shutoff_valid_ns", "ns", "lower"},
      {"services.shutoff_forged_ns", "ns", "lower"},
      {"services.aa_accepted", "count", "higher"},
      {"services.aa_rejected", "count", "lower"},
      {"persist.append_ns", "ns", "lower"},
      {"persist.commit_ns", "ns", "lower"},
      {"persist.records", "count", "higher"},
      {"persist.bytes_per_record", "bytes", "lower"},
      {"persist.degraded", "count", "lower"},
      {"gen.late_p99_us", "us", "lower"},
      {"gen.lost", "count", "lower"},
      {"gen.fwd_p50_us", "us", "lower"},
      {"gen.fwd_p99_us", "us", "lower"},
      {"proc.cpu_per_wall", "ratio", "lower"},
      {"proc.busy.generator", "ratio", "lower"},
      {"proc.busy.egress", "ratio", "lower"},
      {"proc.busy.ingress", "ratio", "lower"},
      {"proc.busy.control", "ratio", "lower"},
      {"proc.host_steal", "ratio", "lower"},
      {"trace.ops_per_s", "1/s", "higher"},
      {"trace.p50_us", "us", "lower"},
      {"trace.p99_us", "us", "lower"},
  };
  return defs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fwd_hot_small", "fwd_cold_large", "issuance", "shutoff_storm"};
  return names;
}

bool run_workload(const Options& opt, Report& rep, std::string& error) {
  static const std::map<std::string, std::function<void(const Options&, Report&)>>
      runners = {{"fwd_hot_small", run_fwd_hot_small},
                 {"fwd_cold_large", run_fwd_cold_large},
                 {"issuance", run_issuance},
                 {"shutoff_storm", run_shutoff_storm}};
  const auto it = runners.find(opt.workload);
  if (it == runners.end()) {
    error = "unknown workload '" + opt.workload + "'";
    return false;
  }
  try {
    it->second(opt, rep);
  } catch (const std::exception& e) {
    error = opt.workload + " failed: " + e.what();
    return false;
  }
  rep.set("peak_rss_mb", peak_rss_mib());
  if (opt.trace) {
    rep.set("trace.ops_per_s", rep.values["ops_per_s"]);
    rep.set("trace.p50_us", rep.values["p50_us"]);
    rep.set("trace.p99_us", rep.values["p99_us"]);
  }
  return true;
}

std::string render(const Options& opt, const Report& rep) {
  // Provenance and machine shape: results from different AES tiers,
  // thread splits or hosts are not comparable.
  std::string prov = "{";
  const auto field = [&](const std::string& k, const std::string& v) {
    prov += (prov.size() > 1 ? "," : "") + quoted(k) + ":" + v;
  };
  field("workload", quoted(opt.workload));
  field("seed", std::to_string(opt.seed));
  field("seconds", number(opt.seconds));
  field("trace", opt.trace ? "1" : "0");
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("aes_tier", quoted(crypto::Aes128::backend_name(crypto::Aes128::best_backend())));
  field("git_sha", quoted(opt.git_sha));
  field("src_digest", quoted(opt.src_digest));
  field("link", quoted("loopback, not a real link"));
  for (const auto& [k, v] : rep.info) field(k, quoted(v));
  prov += "}";
  std::string out = "# provenance " + prov + "\n";
  char line[256];
  for (const Report::Named& n : rep.named) {
    std::snprintf(line, sizeof line, "# %s = %.6g %s\n", n.name.c_str(), n.value,
                  n.unit.c_str());
    out += line;
  }
  for (const std::string& v : rep.violations) out += "# VIOLATION: " + v + "\n";

  std::string metrics = "{";
  for (const MetricDef& m : opt.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto v = rep.values.find(m.name);
    const double value = v == rep.values.end() ? 0.0 : v->second;
    metrics += (metrics.size() > 1 ? "," : "") + quoted(m.name) +
               ":{\"value\":" + number(value) + ",\"unit\":" + quoted(m.unit) + "}";
  }
  metrics += "}";
  out += std::string("{\"correct\":") + (rep.violations.empty() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(rep.attempted) +
         ",\"failed\":" + std::to_string(rep.failed) + ",\"metrics\":" + metrics + "}\n";
  return out;
}

int run_and_print(const Options& opt) {
  Report rep;
  std::string error;
  if (!run_workload(opt, rep, error)) {
    std::fprintf(stderr, "apnabench: %s\n", error.c_str());
    return 2;
  }
  for (const std::string& v : rep.violations)
    std::fprintf(stderr, "apnabench: VIOLATION: %s\n", v.c_str());
  std::fputs(render(opt, rep).c_str(), stdout);
  std::fflush(stdout);
  return rep.violations.empty() && rep.failed == 0 ? 0 : 1;
}

}  // namespace apnabench
