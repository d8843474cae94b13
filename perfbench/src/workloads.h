// The benchmark's workloads. Each runs closed loop from one thread, prints
// its metric table and ends with the result line (see common.h). The return
// value is the process exit code: non-zero on any wrong verdict, failed
// replay or digest mismatch.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "perfbench/src/common.h"

namespace perfbench {

// fleet_mix, racy_wide, racy_wide_par: crash streams through TriageDaemon.
int RunTriageWorkload(const Options& options);
// long_run: VM production runs -> capture -> RES -> suffix replay.
int RunLongRun(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
