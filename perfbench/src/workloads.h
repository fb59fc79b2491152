// The three workloads of the avqdb benchmark and the runner that drives
// an in-process server over loopback TCP for each of them.
#ifndef AVQDB_PERFBENCH_WORKLOADS_H_
#define AVQDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/src/common.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Base relation size; the self-test shrinks it.
  size_t tuples = 200000;
  // Scratch directory for the base image and the WAL (inside the
  // checkout); created and removed by the caller.
  std::string work_dir;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSink metrics;
  // One JSON object describing the host, the seed and the tables.
  std::string info_json;
};

// Names the workloads RunWorkload accepts.
bool IsWorkload(const std::string& name);

// Runs one workload; returns false (with a message on stderr) when the
// run could not be carried out at all.
bool RunWorkload(const RunOptions& options, RunReport* report);

}  // namespace perfbench

#endif  // AVQDB_PERFBENCH_WORKLOADS_H_
