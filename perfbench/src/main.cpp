// Benchmark runner: one workload, one seed, a fixed measuring time.
//
//   perfbench --workload dense_window|city_window|coexist_plan --seed N
//             --seconds S --trace 0|1 [--trace-out spans.jsonl]
//             [--digests digests.txt]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics when
// --trace 1. --digests names a file of per-window fate digests kept from
// earlier runs of the same workload and seed: windows present in both must
// match, and the file is updated with this run's windows.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

extern char** environ;

namespace {

using perfbench::Args;
using perfbench::Report;

// Thread, shard and kernel defaults come from ALPHAWAN_* variables; the
// workloads pin what they need in code, so none may leak in.
void clear_alphawan_environment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry(*env);
    if (entry.rfind("ALPHAWAN_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dense_window|city_window|coexist_plan --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--digests PATH]\n",
               why.c_str());
  std::exit(2);
}

struct Options {
  Args args;
  std::string digests;
};

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.args.workload = value;
      } else if (flag == "--seed") {
        opts.args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opts.args.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        opts.args.trace_out = value;
      } else if (flag == "--digests") {
        opts.digests = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (opts.args.workload.empty()) usage("--workload is required");
  if (!(opts.args.seconds > 0.0)) usage("--seconds must be positive");
  return opts;
}

void print_result(const Report& report) {
  for (const auto& m : report.metrics) {
    std::fprintf(stderr, "  %-24s %18.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false", report.attempted,
              report.failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  clear_alphawan_environment();
  const Options opts = parse(argc, argv);
  perfbench::Tracer tracer(opts.args.trace);

  Report report;
  try {
    if (opts.args.workload == "dense_window") {
      report = perfbench::run_dense_window(opts.args, tracer);
    } else if (opts.args.workload == "city_window") {
      report = perfbench::run_city_window(opts.args, tracer);
    } else if (opts.args.workload == "coexist_plan") {
      report = perfbench::run_coexist_plan(opts.args, tracer);
    } else {
      usage("unknown workload " + opts.args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }

  if (!opts.digests.empty()) {
    perfbench::DigestMap stored = perfbench::read_digests(opts.digests);
    for (const std::string& msg :
         perfbench::digest_mismatches(stored, report.digests)) {
      report.fail(msg);
    }
    for (const auto& [label, digest] : report.digests) {
      stored.emplace(label, digest);
    }
    if (!perfbench::write_digests(opts.digests, stored)) {
      report.fail("cannot write " + opts.digests);
    }
  }
  if (opts.args.trace && !opts.args.trace_out.empty() &&
      !tracer.write_jsonl(opts.args.trace_out)) {
    report.fail("cannot write " + opts.args.trace_out);
  }
  for (std::size_t i = 0; i < report.errors.size() && i < 10; ++i) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", report.errors[i].c_str());
  }
  print_result(report);
  return 0;
}
