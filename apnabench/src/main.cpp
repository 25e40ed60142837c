// apnabench — the end-to-end benchmark driver.
//
//   apnabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--git-sha <sha>] [--src-digest <hex>]
//   apnabench --list-metrics        the metric catalogs, as JSON
//
// The last line of standard output is the run's JSON result; the lines
// before it (prefixed '#') carry provenance, the paper-facing metric names
// and any output-check violation. Exit code 0 only when every check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
// Process-wide operator-new counter (wire.allocs_per_pkt,
// services.allocs_per_req): exactly one translation unit of the program.
#include "util/alloc_count_hook.h"

namespace apnabench {
std::uint64_t heap_allocs() { return apna::util::heap_alloc_count(); }
}  // namespace apnabench

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: apnabench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>] [--git-sha <sha>] "
               "[--src-digest <hex>]\n"
               "       apnabench --list-metrics\n");
  std::exit(2);
}

void print_catalog(const char* key, const std::vector<apnabench::MetricDef>& defs,
                   bool last) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < defs.size(); ++i)
    std::printf("%s{\"name\":\"%s\",\"unit\":\"%s\",\"better\":\"%s\"}",
                i ? "," : "", defs[i].name, defs[i].unit, defs[i].better);
  std::printf("]%s", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  apnabench::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--list-metrics") {
      std::printf("{");
      print_catalog("end_to_end", apnabench::end_to_end_metrics(), false);
      print_catalog("per_layer", apnabench::per_layer_metrics(), true);
      std::printf("}\n");
      return 0;
    } else if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage();
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--trace-out") {
      opt.trace_path = value();
    } else if (a == "--git-sha") {
      opt.git_sha = value();
    } else if (a == "--src-digest") {
      opt.src_digest = value();
    } else {
      usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      opt.seconds <= 0)
    usage();
  if (opt.trace && opt.trace_path.empty()) opt.trace_path = "apnabench-trace.jsonl";
  return apnabench::run_and_print(opt);
}
