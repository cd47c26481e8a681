#include "run/run_spec.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace pcmd::run {

std::int64_t get_int_in(const Cli& cli, const std::string& flag,
                        std::int64_t fallback, std::int64_t lo,
                        std::int64_t hi) {
  const std::int64_t value = cli.get_int(flag, fallback);
  if (value < lo || value > hi) {
    throw SpecError("--" + flag + ": '" + cli.get(flag, "") +
                    "' is out of range (expected an integer from " +
                    std::to_string(lo) + " to " + std::to_string(hi) + ")");
  }
  return value;
}

namespace {
// Reads a count or cadence flag, where 0 means off: a negative value would
// otherwise be dropped, clamped or carried into the spec.
int get_count(const Cli& cli, const std::string& flag, int fallback) {
  return static_cast<int>(
      get_int_in(cli, flag, fallback, 0, std::numeric_limits<int>::max()));
}
}  // namespace

DegradeSpec DegradeSpec::parse(const std::string& text, double factor) {
  const auto bad = [&](const std::string& token) {
    throw SpecError(
        "--degrade: bad token \"" + token + "\" in \"" + text +
        "\" (expected rank=K,at=T — e.g. rank=4,at=0.05)");
  };
  DegradeSpec spec;
  spec.factor = factor;
  bool have_rank = false, have_at = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) bad(token);
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    errno = 0;
    char* end = nullptr;
    if (key == "rank" && !have_rank) {
      const long v = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || errno == ERANGE) bad(token);
      spec.rank = static_cast<int>(v);
      have_rank = true;
    } else if (key == "at" && !have_at) {
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || errno == ERANGE) bad(token);
      spec.at = v;
      have_at = true;
    } else {
      bad(token);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (!have_rank || !have_at) {
    throw SpecError("--degrade: missing " +
                    std::string(have_rank ? "at=T" : "rank=K") + " in \"" +
                    text + "\" (expected rank=K,at=T)");
  }
  return spec;
}

sim::FaultPlan::Stall DegradeSpec::stall() const {
  sim::FaultPlan::Stall stall;
  stall.rank = rank;
  stall.from = at;
  stall.until = 1e30;  // until the end of the run
  stall.factor = factor;
  return stall;
}

RunSpec& RunSpec::with_pe_count(int value) {
  system.pe_count = value;
  return *this;
}

RunSpec& RunSpec::with_m(int value) {
  system.m = value;
  return *this;
}

RunSpec& RunSpec::with_density(double value) {
  system.density = value;
  return *this;
}

RunSpec& RunSpec::with_seed(std::uint64_t value) {
  system.seed = value;
  return *this;
}

RunSpec& RunSpec::with_steps(std::int64_t value) {
  steps = value;
  return *this;
}

RunSpec& RunSpec::with_balancer(ddm::BalancerKind value) {
  balancer.kind = value;
  return *this;
}

RunSpec& RunSpec::with_faults(sim::FaultPlan value) {
  faults = std::move(value);
  if (!faults.empty()) fault_tolerance.reliable = true;
  return *this;
}

RunSpec& RunSpec::with_checkpoint_every(int value) {
  checkpoint_every = value;
  return *this;
}

RunSpec& RunSpec::with_trace(std::string path) {
  trace_path = std::move(path);
  return *this;
}

sim::FaultPlan RunSpec::fault_plan() const {
  sim::FaultPlan plan = faults;
  if (degrade) plan.stalls.push_back(degrade->stall());
  return plan;
}

ddm::ParallelMdConfig RunSpec::parallel_config() const {
  ddm::ParallelMdConfig config;
  config.pe_side = system.pe_side();
  config.m = system.m;
  config.cutoff = system.cutoff;
  config.dt = system.dt;
  config.rescale_temperature = system.temperature;
  config.rescale_interval = system.rescale_interval;
  config.dlb = dlb;
  config.balancer = balancer;
  config.fault_tolerance = fault_tolerance;
  return config;
}

RunSpec parse_run_spec(const Cli& cli, RunSpec defaults) {
  // Cli's own strict numeric/boolean failures already name the flag, the
  // token and the grammar; re-throwing them as SpecError keeps that text
  // while giving every failure path out of this function the one typed
  // error the serve layer classifies on.
  try {
    RunSpec spec = std::move(defaults);
    spec.steps = cli.get_int("steps", spec.steps);
    spec.system.density = cli.get_double("density", spec.system.density);
    spec.system.m = static_cast<int>(
        get_int_in(cli, "m", spec.system.m, std::numeric_limits<int>::min(),
                   std::numeric_limits<int>::max()));
    spec.system.seed = static_cast<std::uint64_t>(get_int_in(
        cli, "seed", static_cast<std::int64_t>(spec.system.seed), 0,
        std::numeric_limits<std::int64_t>::max()));
    if (const auto balancer = cli.get_optional("balancer")) {
      try {
        spec.balancer.kind = ddm::parse_balancer_kind(*balancer);
      } catch (const std::invalid_argument& e) {
        throw SpecError("--balancer: " + std::string(e.what()));
      }
    }
    // --dlb 0 wins over any --balancer: it says no balancer at all.
    if (!cli.get_bool("dlb", true)) {
      spec.balancer.kind = ddm::BalancerKind::kNone;
    }
    if (const auto trace = cli.get_optional("trace")) spec.trace_path = *trace;
    if (const auto faults = cli.get_optional("faults")) {
      try {
        spec.faults = sim::FaultPlan::parse(*faults);
      } catch (const std::invalid_argument& e) {
        throw SpecError("--faults: " + std::string(e.what()));
      }
      if (!spec.faults.empty()) spec.fault_tolerance.reliable = true;
    }
    spec.checkpoint_every =
        get_count(cli, "checkpoint-every", spec.checkpoint_every);
    const int buddy_every = get_count(cli, "buddy-every", 0);
    const int spares = get_count(cli, "spares", 0);
    if (buddy_every > 0 || spares > 0) {
      spec.fault_tolerance.healing.enabled = true;
      if (buddy_every > 0) {
        spec.fault_tolerance.healing.buddy_every = buddy_every;
      }
      spec.fault_tolerance.healing.spares = spares;
    }
    // Queried unconditionally so "--degrade-factor 4" without "--degrade"
    // reads as a consumed (if inert) flag rather than an unknown one.
    const double degrade_factor = cli.get_double("degrade-factor", 6.0);
    if (const auto degrade = cli.get_optional("degrade")) {
      spec.degrade = DegradeSpec::parse(*degrade, degrade_factor);
    }
    return spec;
  } catch (const SpecError&) {
    throw;
  } catch (const std::invalid_argument& e) {
    throw SpecError(e.what());
  }
}

void require_all_flags_consumed(const Cli& cli, const std::string& program) {
  const auto unknown = cli.unqueried_flags();
  if (unknown.empty()) return;
  std::string joined;
  for (const auto& flag : unknown) {
    if (!joined.empty()) joined += ", ";
    joined += "--" + flag;
  }
  throw SpecError(
      program + ": unknown flag" + (unknown.size() > 1 ? "s " : " ") + joined +
      " (shared run flags: --steps N, --density R, --m M, --seed S, "
      "--balancer POLICY, --dlb 0|1, --faults PLAN, --checkpoint-every N, "
      "--buddy-every N, --spares S, --degrade rank=K,at=T, "
      "--degrade-factor F, --trace PATH)");
}

int exit_on_error(const std::exception& error) {
  std::fprintf(stderr, "%s\n", error.what());
  return 2;
}

}  // namespace pcmd::run
