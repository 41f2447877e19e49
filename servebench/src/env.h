// Machine and process state recorded with every run, so host noise can be
// told apart from a contention regression: CPU count, load, CPU pressure,
// compiler and build, and process CPU time next to wall time.
#ifndef SERVEBENCH_ENV_H_
#define SERVEBENCH_ENV_H_

#include <string>

#include "report.h"

namespace servebench {

/// User plus system CPU seconds this process has used so far.
double ProcessCpuSeconds();

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// CPUs this process may run on.
unsigned UsableCpus();

/// nproc, loadavg, /proc/pressure/cpu, compiler, build type and flags, and
/// the git SHA handed in by the runner.
JsonObject EnvironmentJson(const std::string& git_sha);

}  // namespace servebench

#endif  // SERVEBENCH_ENV_H_
