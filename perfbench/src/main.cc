// avqdb_perfbench: one run of one workload of the avqdb benchmark.
//
//   avqdb_perfbench --workload lookup|scan|mixed_rw --seed N --seconds S
//                   --trace 0|1 --work-dir DIR [--tuples N]
//
// Prints one info line ("# info {...}": host, seed, table sizes, cache
// budget) and, as the last line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero, without a result line, when the run could
// not be carried out.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: avqdb_perfbench --workload lookup|scan|mixed_rw "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--tuples N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--tuples") {
      options.tuples = std::strtoull(value, nullptr, 10);
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !perfbench::IsWorkload(options.workload) ||
      options.seconds <= 0 || options.work_dir.empty() ||
      options.tuples < 1000) {
    Usage();
    return 2;
  }
  // glibc raises its mmap threshold whenever a large mmapped buffer is
  // freed; later large buffers then come from the heap and can stay
  // resident after they are freed. Which ones stay depends on the order of
  // frees, and moved scan's peak_rss_mb between ~100 and ~112 MB from seed
  // to seed. A fixed 1 MiB threshold keeps buffers of a few blocks on the
  // heap, as the raised threshold would, and returns larger ones, such as
  // scan results, when they are freed. The heap's trim threshold is set
  // to twice that, the ratio glibc keeps while it adjusts both.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 2 << 20);
  perfbench::RunReport report;
  if (!perfbench::RunWorkload(options, &report)) return 1;
  std::printf("# info %s\n", report.info_json.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      report.metrics.ToJson().c_str());
  return 0;
}
