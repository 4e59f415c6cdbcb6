// kbench — the repository benchmark. One invocation runs one workload:
//
//   kbench --workload <serve|dense|durable|wide> --seed <n> --seconds <s>
//          --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer ledger. Progress and tables go to stdout; the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.h"

namespace {

void usage() {
  std::cerr << "usage: kbench --workload <serve|dense|durable|wide> --seed <n>"
               " --seconds <s> --trace <0|1>\n";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  kbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else {
      usage();
      return 2;
    }
  }
  bool known = false;
  for (const std::string& w : kbench::workload_names())
    known = known || w == args.workload;
  if (!have_workload || !known || args.seconds <= 0.0) {
    usage();
    return 2;
  }

  kbench::RunResult res = kbench::run_workload(args, std::cout);
  for (const std::string& p : res.problems)
    std::cout << "PROBLEM: " << p << "\n";

  std::ostringstream js;
  js << "{\"correct\": " << (res.correct ? "true" : "false")
     << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const kbench::Metric& m = res.metrics[i];
    js << (i ? ", " : "") << "\"" << json_escape(m.name) << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << json_escape(m.unit)
       << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
