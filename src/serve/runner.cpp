#include "serve/runner.hpp"

#include "core/check.hpp"
#include "ddm/parallel_md.hpp"
#include "ddm/recovery.hpp"
#include "md/checkpoint.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"
#include "sim/reliable.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "workload/paper_system.hpp"

#include <memory>
#include <utility>

namespace pcmd::serve {

namespace {

std::uint64_t particle_digest(const md::ParticleVector& particles) {
  std::uint64_t hash = kFnv1a64Basis;
  for (const auto& p : particles) {
    hash = fnv1a64(&p.id, sizeof(p.id), hash);
    for (const double value : {p.position.x, p.position.y, p.position.z,
                               p.velocity.x, p.velocity.y, p.velocity.z}) {
      hash = fnv1a64(&value, sizeof(value), hash);
    }
  }
  return hash;
}

std::unique_ptr<sim::Engine> make_engine(EngineKind kind, int ranks,
                                         const sim::MachineModel& machine) {
  if (kind == EngineKind::kThread) {
    return std::make_unique<sim::ThreadEngine>(ranks, machine);
  }
  return std::make_unique<sim::SeqEngine>(ranks, machine);
}

AttemptResult failed(FailureKind kind, const char* what,
                     const AttemptResult& partial) {
  AttemptResult result = partial;
  result.status = AttemptStatus::kFailed;
  result.failure = kind;
  result.error = what;
  result.preempt.reset();
  return result;
}

}  // namespace

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone: return "none";
    case FailureKind::kMalformedSpec: return "malformed-spec";
    case FailureKind::kChecksum: return "checksum";
    case FailureKind::kPeerDead: return "peer-dead";
    case FailureKind::kUnsurvivable: return "unsurvivable";
    case FailureKind::kProtocol: return "protocol";
    case FailureKind::kInvariant: return "invariant";
    case FailureKind::kInternal: return "internal";
  }
  return "?";
}

bool failure_is_retryable(FailureKind kind) {
  return kind == FailureKind::kChecksum || kind == FailureKind::kPeerDead ||
         kind == FailureKind::kUnsurvivable;
}

const char* attempt_status_name(AttemptStatus status) {
  switch (status) {
    case AttemptStatus::kCompleted: return "completed";
    case AttemptStatus::kDeadline: return "deadline";
    case AttemptStatus::kPreempted: return "preempted";
    case AttemptStatus::kFailed: return "failed";
  }
  return "?";
}

sim::FaultPlan attempt_fault_plan(const JobSpec& job, int attempt) {
  sim::FaultPlan plan = job.run.fault_plan();
  if (attempt > 1 && !plan.empty()) {
    SplitMix64 mix(plan.seed);
    for (int i = 1; i < attempt; ++i) plan.seed = mix.next();
  }
  return plan;
}

AttemptResult run_attempt(const JobSpec& job, const AttemptContext& context) {
  AttemptResult partial;
  if (context.resume) {
    partial.steps_done = context.resume->steps_done;
    partial.virtual_seconds = context.resume->virtual_seconds;
  }
  try {
    const ddm::ParallelMdConfig config = job.run.parallel_config();
    const auto engine = make_engine(job.engine, ddm::engine_rank_count(config),
                                    job.run.machine);

    const sim::FaultPlan plan = attempt_fault_plan(job, context.attempt);
    std::optional<sim::FaultInjector> injector;
    if (!plan.empty()) {
      injector.emplace(plan);
      engine->set_fault_injector(&*injector);
    }

    std::unique_ptr<ddm::ParallelMd> pmd;
    if (context.resume) {
      pmd = std::make_unique<ddm::ParallelMd>(
          ddm::EngineConfig{.engine = engine.get(),
                            .checkpoint = &context.resume->checkpoint},
          config);
      // The restore scatter above advanced the fresh engine's clocks; put
      // back the exact skew the job was suspended with so every subsequent
      // t_step matches an uninterrupted run bitwise.
      engine->restore_clocks(context.resume->clocks);
    } else {
      Rng rng(job.run.system.seed);
      const auto initial = workload::make_paper_system(job.run.system, rng);
      pmd = std::make_unique<ddm::ParallelMd>(
          ddm::EngineConfig{.engine = engine.get(), .box = job.run.system.box(),
                            .initial = &initial},
          config);
    }

    AttemptResult result = partial;
    while (result.steps_done < job.run.steps) {
      const auto stats = pmd->step();
      ++result.steps_done;
      result.virtual_seconds += stats.t_step;
      result.potential_energy = stats.potential_energy;
      result.kinetic_energy = stats.kinetic_energy;

      if (job.deadline > 0.0 && result.virtual_seconds > job.deadline) {
        result.status = AttemptStatus::kDeadline;
        result.error = "deadline exceeded at step " +
                       std::to_string(result.steps_done) + " (virtual " +
                       std::to_string(result.virtual_seconds) + "s > " +
                       std::to_string(job.deadline) + "s)";
        engine->set_fault_injector(nullptr);
        return result;
      }
      if (context.preempt_flag != nullptr && job.preemptible() &&
          result.steps_done < job.run.steps &&
          context.preempt_flag->load(std::memory_order_relaxed)) {
        PreemptState state;
        // Capture the clocks BEFORE the checkpoint gather: its collective
        // traffic advances them, and an uninterrupted run never pays it.
        state.clocks.reserve(static_cast<std::size_t>(engine->size()));
        for (int r = 0; r < engine->size(); ++r) {
          state.clocks.push_back(engine->clock(r));
        }
        state.checkpoint = pmd->checkpoint();
        state.steps_done = result.steps_done;
        state.virtual_seconds = result.virtual_seconds;
        result.status = AttemptStatus::kPreempted;
        result.preempt = std::move(state);
        engine->set_fault_injector(nullptr);
        return result;
      }
    }

    result.status = AttemptStatus::kCompleted;
    result.trajectory_digest = particle_digest(pmd->gather_particles());
    engine->set_fault_injector(nullptr);
    return result;
  } catch (const run::SpecError& e) {
    return failed(FailureKind::kMalformedSpec, e.what(), partial);
  } catch (const sim::ChecksumError& e) {
    return failed(FailureKind::kChecksum, e.what(), partial);
  } catch (const sim::PeerDeadError& e) {
    return failed(FailureKind::kPeerDead, e.what(), partial);
  } catch (const sim::ProtocolError& e) {
    return failed(FailureKind::kProtocol, e.what(), partial);
  } catch (const ddm::RecoveryError& e) {
    return failed(FailureKind::kUnsurvivable, e.what(), partial);
  } catch (const core::CheckError& e) {
    return failed(FailureKind::kInvariant, e.what(), partial);
  } catch (const md::CheckpointError& e) {
    return failed(FailureKind::kInternal, e.what(), partial);
  } catch (const std::invalid_argument& e) {
    // Geometry/config rejections out of the engine constructors: the spec
    // parsed but describes an unrunnable system — still a spec problem.
    return failed(FailureKind::kMalformedSpec, e.what(), partial);
  } catch (const std::exception& e) {
    return failed(FailureKind::kInternal, e.what(), partial);
  }
}

}  // namespace pcmd::serve
