#include "env.h"

#include <sched.h>
#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace servebench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

/// First line of a /proc file, or "" when it cannot be read.
std::string FirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "";
  return line;
}

}  // namespace

JsonObject EnvironmentJson(const std::string& git_sha) {
  JsonObject env;
  env.Num("nproc", UsableCpus());
  env.Num("hardware_concurrency", std::thread::hardware_concurrency());
  std::string load = FirstLine("/proc/loadavg");
  if (!load.empty()) {
    std::istringstream fields(load);
    double l1 = 0, l5 = 0, l15 = 0;
    fields >> l1 >> l5 >> l15;
    std::string triple = "[";
    triple += JsonNumber(l1) + ", " + JsonNumber(l5) + ", " + JsonNumber(l15);
    env.Add("loadavg", triple + "]");
  } else {
    env.Str("loadavg", "absent: /proc/loadavg unreadable");
  }
  std::string pressure = FirstLine("/proc/pressure/cpu");
  env.Str("cpu_pressure",
          pressure.empty() ? "absent: /proc/pressure/cpu unreadable"
                           : pressure);
#if defined(__clang__)
  env.Str("compiler", std::string("clang++ ") + __clang_version__);
#else
  env.Str("compiler", std::string("g++ ") + __VERSION__);
#endif
  env.Str("build_type", SERVEBENCH_BUILD_TYPE);
  env.Str("cxx_flags", SERVEBENCH_CXX_FLAGS);
  if (git_sha.empty()) {
    env.Str("git_sha", "unknown: not a git checkout");
  } else {
    env.Str("git_sha", git_sha);
  }
  return env;
}

}  // namespace servebench
