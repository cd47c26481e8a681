// pcmd_ledger: the repository's benchmark, end to end and layer by layer.
//
//   pcmd_ledger --seed S [--workload a,b] [--seconds T] [--trace 0|1]
//               [--out ledger.json] [--tiny]
//   pcmd_ledger --registry
//   pcmd_ledger --compare parent1.json ... --against change1.json ...
//
// Every selected workload runs in its own child process (this binary,
// re-executed): untraced for the end-to-end metrics, traced for the
// per-layer ones (--trace picks one). Peak RSS comes from wait4(), so
// memory is per workload. The seed drives every generated input; the
// program under test sees only the generated particles and spec texts.
//
// The last line of stdout is one JSON object {"correct", "attempted",
// "failed", "metrics"}; metric names are bare for one workload in one mode
// and "<workload>/<metric>" otherwise. --out writes the same values as a
// flat JSON ledger (the input of --compare), plus <out>.trace.json in
// Chrome trace format for traced runs. Exits 1 when any check fails.
#include "compare.hpp"
#include "md_workloads.hpp"
#include "registry.hpp"
#include "result.hpp"
#include "serve_workloads.hpp"
#include "spans.hpp"

#include "core/check.hpp"
#include "sim/comm.hpp"
#include "util/cli.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

#ifndef PCMD_LEDGER_BUILD_TYPE
#define PCMD_LEDGER_BUILD_TYPE ""
#endif

namespace {

using namespace pcmd;
using namespace pcmd::ledger;
namespace fs = std::filesystem;

// Spans written per workload to the Chrome trace; the metrics use all.
constexpr std::size_t kTraceSpanLimit = 5000;

// Why this build would measure a different program than users run, naming
// the CMake option that fixes it; "" when it may measure.
std::string build_problem() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer; reconfigure with -DPCMD_SANITIZE= (empty)";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "built with a sanitizer; reconfigure with -DPCMD_SANITIZE= (empty)";
#endif
#endif
  if (PCMD_ASSERTS_ENABLED) {
    return "built with PCMD_CHECKS=ON (expensive assertions and per-step "
           "invariant checks); reconfigure with -DPCMD_CHECKS=OFF";
  }
  if (std::string(PCMD_LEDGER_BUILD_TYPE) != "Release") {
    return std::string("built with CMAKE_BUILD_TYPE=") +
           PCMD_LEDGER_BUILD_TYPE +
           "; reconfigure with -DCMAKE_BUILD_TYPE=Release";
  }
  return "";
}

std::string l3_kib() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string size;
  if (!(in >> size) || size.empty()) return "0";
  return size.back() == 'K' ? size.substr(0, size.size() - 1) : size;
}

// Host facts as (key, JSON literal), recorded with every result.
std::vector<std::pair<std::string, std::string>> host_facts(
    std::uint64_t seed) {
  const auto quoted = [](const std::string& s) { return "\"" + s + "\""; };
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "GCC " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return {
      {"host.nproc", std::to_string(std::thread::hardware_concurrency())},
      {"host.l3_kib", l3_kib()},
      {"host.compiler", quoted(compiler)},
      {"host.build_type", quoted(PCMD_LEDGER_BUILD_TYPE)},
      {"host.checker_hooks", quoted(PCMD_CHECKER_ENABLED ? "ON" : "OFF")},
      {"host.checks", quoted(PCMD_ASSERTS_ENABLED ? "ON" : "OFF")},
      {"seed", std::to_string(seed)},
  };
}

std::string number(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

// ---- child: one workload in one mode, in-process ----------------------------

int run_child(const Cli& cli) {
  const WorkloadDef* workload = find_workload(cli.get("child", ""));
  if (workload == nullptr) {
    std::fprintf(stderr, "pcmd_ledger: unknown workload\n");
    return 2;
  }
  RunContext context;
  context.workload = workload;
  context.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  context.seconds = cli.get_double("seconds", kRunSeconds);
  context.tiny = cli.get_bool("tiny", false);
  context.scratch_dir = cli.get("scratch", "");
  const bool traced = cli.get_bool("trace", false);
  const std::string spans_path = cli.get("spans", "");
  const int pid = static_cast<int>(cli.get_int("pid", 1));
  SpanLog log;
  if (traced) context.spans = &log;

  RunResult result;
  try {
    const bool md = workload->kind == WorkloadKind::kMd;
    if (!traced) {
      result = md ? run_md_timed(context) : run_serve_timed(context);
    } else {
      probe_md_layers(make_system(md ? workload->system : "serve_job",
                                  context.seed),
                      context, result);
      probe_serve_layers(context, result);
      result.check(log.nested(), "traced spans nest inside their parents");
    }
  } catch (const std::exception& e) {
    result.check(false, std::string("run aborted: ") + e.what());
  }
  if (traced && !spans_path.empty()) {
    std::ofstream out(spans_path);
    log.write_chrome_events(out, pid, kTraceSpanLimit);
  }
  std::printf("check %lld %lld\n", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (auto lines : {std::pair{"failure", &result.failures},
                     std::pair{"note", &result.notes}}) {
    for (std::string text : *lines.second) {
      std::replace(text.begin(), text.end(), '\n', ' ');
      std::printf("%s %s\n", lines.first, text.c_str());
    }
  }
  for (const auto& [name, value] : result.metrics) {
    std::printf("metric %s %s\n", name.c_str(), number(value).c_str());
  }
  return 0;
}

// ---- parent: spawn, reap, collect ------------------------------------------

struct ChildReport {
  RunResult result;
  double rss_mb = 0.0;
  bool exited_cleanly = false;
};

ChildReport spawn_child(const std::vector<std::string>& args) {
  ChildReport report;
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pcmd_ledger: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    throw std::runtime_error(std::string("pcmd_ledger: cannot spawn ") +
                             argv[0] + ": " + std::strerror(spawned));
  }
  std::string output;
  char buffer[4096];
  for (ssize_t got; (got = read(fds[0], buffer, sizeof(buffer))) != 0;) {
    if (got < 0) {
      if (errno == EINTR) continue;
      break;
    }
    output.append(buffer, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  report.exited_cleanly = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  report.rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB

  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "check") {
      fields >> report.result.attempted >> report.result.failed;
    } else if (kind == "failure" || kind == "note") {
      auto& lines =
          kind == "note" ? report.result.notes : report.result.failures;
      lines.push_back(line.substr(kind.size() + 1));
    } else if (kind == "metric") {
      std::string name, value;
      fields >> name >> value;
      report.result.metrics[name] = std::stod(value);
    }
  }
  return report;
}

std::vector<const WorkloadDef*> select_workloads(const std::string& list) {
  std::vector<const WorkloadDef*> selected;
  if (list.empty()) {
    for (const auto& w : workloads()) selected.push_back(&w);
    return selected;
  }
  std::istringstream names(list);
  for (std::string name; std::getline(names, name, ',');) {
    const WorkloadDef* w = find_workload(name);
    if (w == nullptr) {
      std::string known;
      for (const auto& k : workloads()) known += std::string(" ") + k.name;
      throw std::invalid_argument("--workload: unknown workload \"" + name +
                                  "\" (known:" + known + ")");
    }
    selected.push_back(w);
  }
  return selected;
}

// Merges the children's span files into one Chrome trace, one process per
// workload.
void write_trace(const std::string& path,
                 const std::vector<std::string>& parts,
                 const std::vector<const WorkloadDef*>& selected) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t k = 0; k < selected.size(); ++k) {
    out << (first ? "" : ",\n") << "{\"name\":\"process_name\",\"ph\":\"M\","
        << "\"pid\":" << k + 1 << ",\"args\":{\"name\":\""
        << selected[k]->name << "\"}}";
    first = false;
  }
  for (const auto& file : parts) {
    std::ifstream in(file);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) out << ",\n" << line;
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run_ledger(const Cli& cli) {
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", kRunSeconds);
  const bool tiny = cli.get_bool("tiny", false);
  const auto selected = select_workloads(cli.get("workload", ""));
  std::vector<int> modes = {0, 1};
  if (cli.has("trace")) modes = {cli.get_bool("trace", false) ? 1 : 0};
  const std::string out_path = cli.get("out", "");
  const auto unknown = cli.unqueried_flags();
  if (!unknown.empty()) {
    throw std::invalid_argument("unknown flag --" + unknown.front() +
                                " (accepted: --seed --workload --seconds "
                                "--trace --out --tiny --registry --compare)");
  }
  if (const std::string problem = build_problem(); !problem.empty()) {
    std::fprintf(stderr, "pcmd_ledger: refusing to measure: %s\n",
                 problem.c_str());
    return 2;
  }

  const fs::path exe = fs::read_symlink("/proc/self/exe");
  const fs::path scratch =
      exe.parent_path() / "ledger-tmp" / std::to_string(getpid());
  const bool bare = selected.size() == 1 && modes.size() == 1;
  RunResult total;
  std::vector<std::string> trace_parts;
  for (std::size_t k = 0; k < selected.size(); ++k) {
    const WorkloadDef& w = *selected[k];
    for (const int traced : modes) {
      const fs::path dir =
          scratch / (std::string(w.name) + (traced ? ".traced" : ""));
      fs::create_directories(dir);
      std::vector<std::string> args = {
          exe.string(), "--child", w.name, "--seed", std::to_string(seed),
          "--seconds", number(seconds), "--trace", std::to_string(traced),
          "--scratch", dir.string(), "--pid", std::to_string(k + 1)};
      if (tiny) args.push_back("--tiny");
      const std::string spans = (dir / "spans.jsonl").string();
      if (traced && !out_path.empty()) {
        args.push_back("--spans");
        args.push_back(spans);
      }
      std::fprintf(stderr, "pcmd_ledger: %s (%s)\n", w.name,
                   traced ? "traced" : "untraced");
      ChildReport report = spawn_child(args);
      RunResult& r = report.result;
      r.check(report.exited_cleanly, "child process did not exit 0");
      if (!traced) r.metrics["rss_mb"] = report.rss_mb;
      // Every registered metric of this mode must be emitted and finite.
      for (const auto& metric :
           traced ? per_layer_metrics() : end_to_end_metrics()) {
        const auto it = r.metrics.find(metric.name);
        r.check(it != r.metrics.end() && std::isfinite(it->second),
                std::string("metric ") + metric.name +
                    " missing or not finite");
      }
      total.attempted += r.attempted;
      total.failed += r.failed;
      for (const auto& failure : r.failures) {
        std::fprintf(stderr, "pcmd_ledger: FAILED %s: %s\n", w.name,
                     failure.c_str());
      }
      for (const auto& note : r.notes) {
        total.notes.push_back(std::string(w.name) + ": " + note);
      }
      for (const auto& [name, value] : r.metrics) {
        if (find_metric(name)) total.metrics[w.name + ("/" + name)] = value;
      }
      if (traced && !out_path.empty()) trace_parts.push_back(spans);
    }
  }

  const auto facts = host_facts(seed);
  std::printf("# host");
  for (const auto& [key, value] : facts) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");
  // Keys are "<workload>/<metric>".
  const auto unit = [](const std::string& key) {
    return find_metric(key.substr(key.find('/') + 1))->unit;
  };
  for (const auto& [key, value] : total.metrics) {
    std::printf("%-52s %16.6g %s\n", key.c_str(), value, unit(key));
  }
  for (const auto& note : total.notes) std::printf("# %s\n", note.c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\n";
    for (const auto& [key, value] : facts) {
      out << "  \"" << key << "\": " << value << ",\n";
    }
    out << "  \"attempted\": " << total.attempted << ",\n"
        << "  \"failed\": " << total.failed;
    for (const auto& [key, value] : total.metrics) {
      out << ",\n  \"" << key << "\": " << number(value);
    }
    out << "\n}\n";
    if (!out) throw std::runtime_error("cannot write --out " + out_path);
    if (!trace_parts.empty()) {
      std::string base = out_path;
      if (base.size() > 5 && base.ends_with(".json")) {
        base.resize(base.size() - 5);
      }
      write_trace(base + ".trace.json", trace_parts, selected);
    }
  }
  std::error_code ignored;
  fs::remove_all(scratch, ignored);

  std::ostringstream line;
  line << "{\"correct\": " << (total.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << total.attempted
       << ", \"failed\": " << total.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [key, value] : total.metrics) {
    const std::string name = bare ? key.substr(key.find('/') + 1) : key;
    line << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << number(value) << ", \"unit\": \"" << unit(key) << "\"}";
    first = false;
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return total.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    const auto compare_at = std::find(args.begin(), args.end(), "--compare");
    if (compare_at != args.end()) {
      const auto against_at = std::find(compare_at, args.end(), "--against");
      if (compare_at != args.begin() || against_at == args.end()) {
        throw std::invalid_argument(
            "usage: pcmd_ledger --compare PARENT.json... --against "
            "CHANGE.json...");
      }
      return compare({compare_at + 1, against_at},
                     {against_at + 1, args.end()});
    }
    const Cli cli(argc, argv);
    if (cli.get_bool("registry", false)) {
      std::fputs(benchmark_json().c_str(), stdout);
      return 0;
    }
    if (cli.has("child")) return run_child(cli);
    return run_ledger(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcmd_ledger: %s\n", e.what());
    return 2;
  }
}
