// e2ebench_driver — runs one workload of the end-to-end benchmark and
// prints its raw measurements as one JSON object (see README.md).
//
//   e2ebench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   e2ebench_driver --self-check
//
// --self-check feeds synthetic failing input (a rejected query line, a
// truncated and a non-finite server response, a sweep that threw,
// non-finite fleet decisions, both merged as fleet replicas' reports
// are, quarantined trials) through each workload's operation counting
// and reports the counts per case (test_benchlib.py asserts them).
//
// Normally invoked through run.py, which builds this binary, reduces the
// raw report into metrics and prints the result line.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <string>

#include "common.h"

namespace e2ebench {
namespace {

void print_json_string(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(out, "\\u%04x", static_cast<unsigned>(c));
    } else {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

void print_json_number(std::FILE* out, double v) {
  if (std::isfinite(v)) {
    std::fprintf(out, "%.17g", v);
  } else {
    std::fputs("null", out);  // run.py treats a non-finite value as a failed run
  }
}

/// The CPUs of the calling thread's affinity mask (empty if unknown).
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

}  // namespace

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::merge(const Report& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  checks_.insert(checks_.end(), other.checks_.begin(), other.checks_.end());
  for (const auto& [name, xs] : other.series_) {
    std::vector<double>& into = series_[name];
    into.insert(into.end(), xs.begin(), xs.end());
  }
  for (const auto& [key, v] : other.values_) values_[key] = v;
}

void Report::print(std::FILE* out) const {
  std::fputs("{\"workload\": ", out);
  print_json_string(out, workload_);
  std::fprintf(out, ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64, attempted_, failed_);
  std::fputs(", \"checks\": [", out);
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) std::fputs(", ", out);
    std::fputs("{\"name\": ", out);
    print_json_string(out, checks_[i].name);
    std::fprintf(out, ", \"ok\": %s, \"detail\": ", checks_[i].ok ? "true" : "false");
    print_json_string(out, checks_[i].detail);
    std::fputc('}', out);
  }
  std::fputs("], \"series\": {", out);
  bool first = true;
  for (const auto& [name, xs] : series_) {
    if (!first) std::fputs(", ", out);
    first = false;
    print_json_string(out, name);
    std::fputs(": [", out);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) std::fputc(',', out);
      print_json_number(out, xs[i]);
    }
    std::fputc(']', out);
  }
  std::fputs("}, \"values\": {", out);
  first = true;
  for (const auto& [name, v] : values_) {
    if (!first) std::fputs(", ", out);
    first = false;
    print_json_string(out, name);
    std::fputs(": ", out);
    print_json_number(out, v);
  }
  std::fputs("}}\n", out);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so a
  // driver spawned by a larger parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

CpuRotation::CpuRotation() : cpus_(allowed_cpus()) {}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  pin_thread(cpus_[next_ % cpus_.size()]);
  ++next_;
}

void pin_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);  // best effort: timing only
}

std::vector<int> replica_cpus() {
  std::vector<int> cpus = allowed_cpus();
  if (cpus.size() > 1) cpus.resize(std::min(cpus.size() - 1, kMaxReplicas));
  return cpus;
}

}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  if (argc == 2 && std::string(argv[1]) == "--self-check") {
    Report report("self_check");
    self_check_serve_counting(report);
    self_check_fleet_counting(report);
    self_check_campaign_counting(report);
    report.print(stdout);
    return 0;
  }
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
    } else {
      std::fprintf(stderr, "e2ebench_driver: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: e2ebench_driver --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       e2ebench_driver --self-check\n");
    return 2;
  }

  Report report(args.workload);
  try {
    if (args.workload == "fleet_wifi_dense") {
      run_fleet_wifi_dense(args, report);
    } else if (args.workload == "fleet_multilink_chaos") {
      run_fleet_multilink_chaos(args, report);
    } else if (args.workload == "decide_serve") {
      run_decide_serve(args, report);
    } else if (args.workload == "mc_campaign") {
      run_mc_campaign(args, report);
    } else {
      std::fprintf(stderr, "e2ebench_driver: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench_driver: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (!report.has("peak_rss_mb")) report.set("peak_rss_mb", peak_rss_mb());
  report.print(stdout);
  return 0;
}
