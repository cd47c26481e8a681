#include "serve/job_spec.hpp"

#include "serve/flat_json.hpp"
#include "util/checksum.hpp"

#include <cstdio>
#include <limits>
#include <vector>

namespace pcmd::serve {

namespace {

// %.17g round-trips IEEE doubles exactly, matching the repo's scoreboard
// and metrics writers, so canonical() is a stable digest input.
std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
    std::size_t end = pos;
    while (end < text.size() && text[end] != ' ' && text[end] != '\t' &&
           text[end] != '\n' && text[end] != '\r') {
      ++end;
    }
    if (end > pos) tokens.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return tokens;
}

JobSpec parse_tokens(const std::vector<std::string>& tokens) {
  std::vector<const char*> argv;
  argv.reserve(tokens.size() + 1);
  argv.push_back("job-spec");
  for (const auto& token : tokens) argv.push_back(token.c_str());
  const Cli cli(static_cast<int>(argv.size()), argv.data());

  try {
    JobSpec job;
    job.run.system.pe_count = static_cast<int>(run::get_int_in(
        cli, "pe", job.run.system.pe_count, std::numeric_limits<int>::min(),
        std::numeric_limits<int>::max()));
    job.run = run::parse_run_spec(cli, std::move(job.run));
    if (const auto priority = cli.get_optional("priority")) {
      job.priority = parse_priority(*priority);
    }
    if (const auto engine = cli.get_optional("engine")) {
      job.engine = parse_engine_kind(*engine);
    }
    job.deadline = cli.get_double("deadline", job.deadline);
    // The old spelling of crash survival: self-healing, at the cadence and
    // spare count the healing flags give (by default every 10 steps, no
    // spares).
    if (cli.get_bool("recovery", false)) {
      job.run.fault_tolerance.healing.enabled = true;
    }
    run::require_all_flags_consumed(cli, "job-spec");

    if (job.deadline < 0.0) {
      throw run::SpecError("--deadline: " + format_double(job.deadline) +
                           " is negative (virtual seconds; 0 disables)");
    }
    if (job.run.steps < 1) {
      throw run::SpecError("--steps: " + std::to_string(job.run.steps) +
                           " (a job must run at least one step)");
    }
    job.run.system.validate();
    return job;
  } catch (const run::SpecError&) {
    throw;
  } catch (const std::invalid_argument& e) {
    throw run::SpecError(e.what());
  }
}

}  // namespace

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "?";
}

Priority parse_priority(const std::string& name) {
  if (name == "low") return Priority::kLow;
  if (name == "normal") return Priority::kNormal;
  if (name == "high") return Priority::kHigh;
  throw run::SpecError("--priority: unknown lane \"" + name +
                       "\" (accepted: low, normal, high)");
}

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSeq: return "seq";
    case EngineKind::kThread: return "thread";
  }
  return "?";
}

EngineKind parse_engine_kind(const std::string& name) {
  if (name == "seq") return EngineKind::kSeq;
  if (name == "thread") return EngineKind::kThread;
  throw run::SpecError("--engine: unknown engine \"" + name +
                       "\" (accepted: seq, thread)");
}

JobSpec JobSpec::parse(const std::string& text) {
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') continue;
    if (c == '{') return parse_json(text);
    break;
  }
  return parse_flags(text);
}

JobSpec JobSpec::parse_flags(const std::string& text) {
  return parse_tokens(tokenize(text));
}

JobSpec JobSpec::parse_json(const std::string& text) {
  std::vector<std::string> tokens;
  for (auto& [key, value] : parse_flat_json(text)) {
    if (key.empty() || key.find(' ') != std::string::npos) {
      throw run::SpecError("flat json: key \"" + key +
                           "\" is not a valid flag name");
    }
    tokens.push_back("--" + key);
    tokens.push_back(value);
  }
  return parse_tokens(tokens);
}

std::string JobSpec::canonical() const {
  const auto& ft = run.fault_tolerance;
  std::string out;
  out += "--pe " + std::to_string(run.system.pe_count);
  out += " --m " + std::to_string(run.system.m);
  out += " --density " + format_double(run.system.density);
  out += " --seed " + std::to_string(run.system.seed);
  out += " --steps " + std::to_string(run.steps);
  out += " --balancer " + std::string(ddm::balancer_name(run.balancer.kind));
  if (!run.faults.empty()) out += " --faults " + run.faults.to_string();
  out += " --checkpoint-every " + std::to_string(run.checkpoint_every);
  out += " --buddy-every " +
         std::to_string(ft.healing.enabled ? ft.healing.buddy_every : 0);
  out += " --spares " +
         std::to_string(ft.healing.enabled ? ft.healing.spares : 0);
  if (run.degrade) {
    out += " --degrade rank=" + std::to_string(run.degrade->rank) +
           ",at=" + format_double(run.degrade->at);
    out += " --degrade-factor " + format_double(run.degrade->factor);
  }
  out += " --deadline " + format_double(deadline);
  out += " --engine " + std::string(engine_kind_name(engine));
  return out;
}

std::uint64_t JobSpec::digest() const { return fnv1a64(canonical()); }

std::uint64_t JobSpec::family_digest() const {
  return family_digest_of_canonical(canonical());
}

std::string JobSpec::digest_hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest()));
  return buf;
}

bool JobSpec::preemptible() const {
  return run.fault_plan().empty() && !run.fault_tolerance.healing.enabled;
}

std::uint64_t family_digest_of_canonical(const std::string& canonical) {
  // Mask "--seed <n>" to "--seed 0" textually: canonical() emits the flag
  // exactly once, so this is a digest over the seed-free configuration.
  std::string masked = canonical;
  const std::string flag = "--seed ";
  const std::size_t at = canonical.find(flag);
  if (at != std::string::npos) {
    const std::size_t from = at + flag.size();
    std::size_t end = from;
    while (end < canonical.size() && canonical[end] != ' ') ++end;
    masked = canonical.substr(0, from) + "0" + canonical.substr(end);
  }
  return fnv1a64(masked);
}

}  // namespace pcmd::serve
