// Shared vocabulary of the benchmark driver: options, the per-run report
// and the metric catalogs (the names BENCHMARK.json lists).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace apnabench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), ns.
std::int64_t thread_cpu_ns();
/// CPU time of another running thread of this process, ns.
std::int64_t thread_cpu_ns(std::thread& t);
/// Process-wide operator-new count (util/alloc_count_hook.h, installed by
/// the program's main translation unit). Counts every thread.
std::uint64_t heap_allocs();
/// CPU time of the whole process (user + system), ns.
std::int64_t process_cpu_ns();
/// Host CPU accounting (/proc/stat "cpu" line): busy and stolen jiffies.
/// Steal is time the hypervisor ran something else on our vCPUs — the
/// main source of run-to-run spread on a shared VM.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostCpu host_cpu();
/// Share of CPU time stolen between two readings (0 when unknown).
double steal_share(const HostCpu& a, const HostCpu& b);

/// Pins `t` (the calling thread when null) to CPU `cpu` when the host has
/// at least `min_cpus` CPUs; otherwise leaves it to the scheduler.
void pin_thread(std::thread* t, unsigned cpu, unsigned min_cpus = 4);
/// Peak resident set of the process so far, MiB.
double peak_rss_mib();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // where a traced run writes its spans
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  /// Self-test runs: shrink the world (hosts, flows, requests) so a run of
  /// every workload fits in a few seconds. Never set by the benchmark
  /// command itself.
  bool small = false;
};

/// What one workload run produced. `values` holds every metric measured
/// (end-to-end and per-layer names share one namespace); the catalogs
/// below decide which are printed.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // output-check failures
  std::map<std::string, double> values;
  /// Provenance/shape lines specific to the workload (thread split,
  /// offered rates, sample counts, validity).
  std::vector<std::pair<std::string, std::string>> info;
  /// The workload's end-to-end figures under the names the paper-facing
  /// tables use (fwd_pps, issue_p99_us, ...): name, value, unit.
  struct Named {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Named> named;

  void violation(std::string what) { violations.push_back(std::move(what)); }
  void set(const std::string& name, double v) { values[name] = v; }
};

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
};

/// End-to-end metrics, printed on every untraced run of every workload.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, printed on every traced run of every workload (0
/// where the layer does no work on that workload).
const std::vector<MetricDef>& per_layer_metrics();

/// Workload entry points. Each builds its served world (timed as setup),
/// drives the measured phases and fills `rep`.
void run_fwd_hot_small(const Options& opt, Report& rep);
void run_fwd_cold_large(const Options& opt, Report& rep);
void run_shutoff_storm(const Options& opt, Report& rep);
void run_issuance(const Options& opt, Report& rep);

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload into `rep` (false with `error` set when it could not
/// run at all — no result is printed then).
bool run_workload(const Options& opt, Report& rep, std::string& error);

/// The printed form of a report: provenance, the paper-facing names, any
/// violation, then the one-line JSON result (last line).
std::string render(const Options& opt, const Report& rep);

/// Runs one workload and prints its report; returns the process exit code
/// (0 only when every output check passed and nothing failed).
int run_and_print(const Options& opt);

}  // namespace apnabench
