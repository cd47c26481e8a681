#include "md_workloads.hpp"

#include "stats.hpp"
#include "traced_engine.hpp"

#include "ddm/balancer.hpp"
#include "ddm/parallel_md.hpp"
#include "ddm/wire.hpp"
#include "md/cell_grid.hpp"
#include "md/integrator.hpp"
#include "md/observables.hpp"
#include "md/serial_md.hpp"
#include "obs/collector.hpp"
#include "sim/comm.hpp"
#include "util/rng.hpp"
#include "workload/gas.hpp"
#include "workload/lattice.hpp"
#include "workload/paper_system.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

namespace pcmd::ledger {

namespace {

// Every episode is built fresh from the same particles and runs warm-up
// steps, then timed steps, so every run of a workload times the same
// stretch of trajectory however fast the host is. 60 steps stay inside
// the paper's first 50-step rescale interval for the SerialMd energy check
// (steps 1-49) and take about a second on SeqEngine for gas_p16.
struct Shape {
  int warmup;
  int timed;
};
constexpr Shape kShape{10, 50};
constexpr Shape kTinyShape{2, 5};
constexpr int kSetupRepsPerEpisode = 2;
// Steps before the thermostat's first rescale, whose reduction order the
// serial and parallel engines do not share.
constexpr int kParityStepsBeforeRescale = 49;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// FNV-1a 64 over id, position and velocity bytes (run_attempt's scheme).
std::uint64_t digest(const md::ParticleVector& particles) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  for (const auto& p : particles) {
    mix(&p.id, sizeof(p.id));
    mix(&p.position, sizeof(p.position));
    mix(&p.velocity, sizeof(p.velocity));
  }
  return hash;
}

md::ParticleVector make_droplet(const Box& box, std::uint64_t seed) {
  Rng rng(seed);
  const double edge = box.length.x;
  const double core = edge / 2.0;
  const double lo = (edge - core) / 2.0;
  auto particles = workload::simple_cubic(
      std::llround(0.8 * core * core * core), Box::cubic(core),
      md::PaperConditions::reduced_temperature, rng);
  for (auto& p : particles) {
    p.position += Vec3{lo, lo, lo};
  }
  // Gas everywhere outside the core and a 1.2 sigma shell around it.
  const auto gas = workload::random_gas(std::llround(0.05 * box.volume()),
                                        box, workload::GasConfig{}, rng);
  const double a = lo - 1.2;
  const double b = lo + core + 1.2;
  const auto inside = [&](double x) { return x > a && x < b; };
  for (auto p : gas) {
    if (inside(p.position.x) && inside(p.position.y) &&
        inside(p.position.z)) {
      continue;
    }
    p.id = static_cast<std::int64_t>(particles.size());
    particles.push_back(p);
  }
  md::zero_momentum(particles);
  return particles;
}

md::SerialMdConfig serial_config(const System& system) {
  const auto parallel = system.spec.parallel_config();
  md::SerialMdConfig config;
  config.dt = parallel.dt;
  config.cutoff = parallel.cutoff;
  config.cells_per_axis = system.spec.system.cells_per_axis();
  config.rescale_temperature = parallel.rescale_temperature;
  config.rescale_interval = parallel.rescale_interval;
  return config;
}

std::unique_ptr<sim::Engine> make_engine(Tier tier, int ranks) {
  if (tier == Tier::kThread) return std::make_unique<sim::ThreadEngine>(ranks);
  return std::make_unique<sim::SeqEngine>(ranks);
}

// What one episode produced, for timing and for the checks.
struct EpisodeLog {
  std::vector<double> step_seconds;  // timed steps
  std::vector<std::uint64_t> pairs;  // every step
  std::vector<double> potential;     // every step
  bool particles_conserved = true;
  bool ownership_ok = true;
  double virtual_seconds = 0.0;  // sum of t_step over every step
  std::uint64_t digest = 0;      // id-sorted particles after the last step
  int transfers = 0;             // timed steps
  std::uint64_t messages = 0;    // timed steps, all ranks
  std::uint64_t bytes = 0;
};

bool same_trajectory(const EpisodeLog& a, const EpisodeLog& b) {
  return a.digest == b.digest && a.pairs == b.pairs &&
         std::memcmp(&a.virtual_seconds, &b.virtual_seconds,
                     sizeof(double)) == 0;
}

struct EpisodeOptions {
  TracedSeqEngine* traced = nullptr;  // bracket timed steps in spans
  obs::TraceCollector* collector = nullptr;
  std::int64_t first_trace_id = 0;
  // After each timed step, outside its timing.
  std::function<void(const ddm::ParallelMd&, const ddm::ParallelStepStats&)>
      after_step;
  // After the last step, on the final state.
  std::function<void(ddm::ParallelMd&)> at_end;
};

EpisodeLog run_parallel(const System& system, sim::Engine& engine, Shape shape,
                        const EpisodeOptions& options = {}) {
  auto config = system.spec.parallel_config();
  config.trace = options.collector;
  if (options.collector != nullptr) engine.set_trace_sink(options.collector);
  ddm::ParallelMd md(ddm::EngineConfig{.engine = &engine,
                                       .box = system.spec.system.box(),
                                       .initial = &system.initial},
                     config);
  const auto n = static_cast<std::int64_t>(system.initial.size());
  const auto traffic = [&engine] {
    std::pair<std::uint64_t, std::uint64_t> total{0, 0};
    for (int r = 0; r < engine.size(); ++r) {
      total.first += engine.counters(r).messages_sent;
      total.second += engine.counters(r).bytes_sent;
    }
    return total;
  };
  EpisodeLog log;
  std::pair<std::uint64_t, std::uint64_t> before{0, 0};
  for (int i = 0; i < shape.warmup + shape.timed; ++i) {
    const bool timed = i >= shape.warmup;
    if (timed && i == shape.warmup) before = traffic();
    if (timed && options.traced) {
      options.traced->begin_step(options.first_trace_id + i - shape.warmup);
    }
    const std::int64_t start = now_ns();
    const auto stats = md.step();
    const double seconds = seconds_since(start);
    if (timed && options.traced) options.traced->end_step();
    if (timed) {
      log.step_seconds.push_back(seconds);
      log.transfers += stats.transfers;
      if (options.after_step) options.after_step(md, stats);
    }
    log.pairs.push_back(stats.pair_evaluations);
    log.potential.push_back(stats.potential_energy);
    log.virtual_seconds += stats.t_step;
    log.particles_conserved =
        log.particles_conserved && stats.total_particles == n;
  }
  const auto after = traffic();
  log.messages = after.first - before.first;
  log.bytes = after.second - before.second;
  log.digest = digest(md.gather_particles());
  log.ownership_ok = md.check_ownership().ok;
  if (options.at_end) options.at_end(md);
  if (options.collector != nullptr) engine.set_trace_sink(nullptr);
  return log;
}

EpisodeLog run_serial(const System& system, Shape shape) {
  md::SerialMd md(system.spec.system.box(), system.initial,
                  serial_config(system));
  EpisodeLog log;
  for (int i = 0; i < shape.warmup + shape.timed; ++i) {
    const std::int64_t start = now_ns();
    const auto stats = md.step();
    const double seconds = seconds_since(start);
    if (i >= shape.warmup) log.step_seconds.push_back(seconds);
    log.pairs.push_back(stats.pair_evaluations);
    log.potential.push_back(stats.potential_energy);
  }
  log.particles_conserved = md.particles().size() == system.initial.size();
  log.digest = digest(md.particles());
  return log;
}

EpisodeLog run_tier(const System& system, Tier tier, Shape shape) {
  if (tier == Tier::kSerial) return run_serial(system, shape);
  const auto engine = make_engine(tier, system.spec.system.pe_count);
  return run_parallel(system, *engine, shape);
}

// Seconds to generate the system and construct the tier's simulation,
// including the parallel engine's initial halo and force phases.
double time_setup(const std::string& name, std::uint64_t seed, Tier tier) {
  const std::int64_t start = now_ns();
  const System system = make_system(name, seed);
  if (tier == Tier::kSerial) {
    const md::SerialMd md(system.spec.system.box(), system.initial,
                          serial_config(system));
    return seconds_since(start);
  }
  const auto engine = make_engine(tier, system.spec.system.pe_count);
  const ddm::ParallelMd md(ddm::EngineConfig{.engine = engine.get(),
                                             .box = system.spec.system.box(),
                                             .initial = &system.initial},
                           system.spec.parallel_config());
  return seconds_since(start);
}

// Potential energy of the parallel run against SerialMd, before the first
// thermostat rescale.
void check_energy_parity(const EpisodeLog& parallel, const EpisodeLog& serial,
                         RunResult& result) {
  const std::size_t steps =
      std::min({parallel.potential.size(), serial.potential.size(),
                static_cast<std::size_t>(kParityStepsBeforeRescale)});
  for (std::size_t i = 0; i < steps; ++i) {
    const double want = serial.potential[i];
    const double got = parallel.potential[i];
    std::ostringstream what;
    what << "potential energy at step " << i + 1 << ": ParallelMd " << got
         << " vs SerialMd " << want;
    result.check(std::abs(got - want) <= 1e-9 * std::abs(want), what.str());
  }
}

// Median step time and the throughput it implies, N particle-steps per
// median step.
void add_timing_metrics(const std::vector<double>& step_seconds,
                        std::int64_t particles, RunResult& result) {
  const double p50 = median(step_seconds);
  result.metrics["throughput"] = static_cast<double>(particles) / p50;
  result.metrics["latency_ms_p50"] = 1e3 * p50;
  result.note_latency("step", step_seconds, 1e3);
}

// ---- traced-pass attribution ------------------------------------------------

// Per-step attribution read back from the traced engine's span tree.
struct Attribution {
  std::array<std::vector<double>, 6> phase_ms;
  std::vector<double> driver_ms;
  std::vector<double> crit_path_ms;
  std::vector<double> ideal_ms;
  std::vector<double> host_imbalance;
  // Phase-E body seconds per step, indexed by rank.
  std::vector<std::vector<double>> force_host;
  double attributed_ns = 0.0;  // self times summed over step subtrees
  double step_ns = 0.0;
  bool six_phases = true;
};

Attribution attribute(const SpanLog& log, int ranks) {
  const auto& spans = log.spans();
  const auto kids = log.children_by_start();
  const auto self = log.self_times();
  const std::uint32_t step_name = log.find("step");
  std::vector<std::uint32_t> rank_names;
  for (int r = 0; r < ranks; ++r) {
    rank_names.push_back(log.find("rank." + std::to_string(r)));
  }
  const auto ms = [&](std::int32_t i) {
    const Span& s = spans[static_cast<std::size_t>(i)];
    return static_cast<double>(s.end - s.start) * 1e-6;
  };
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

  Attribution a;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != step_name || spans[i].parent >= 0) continue;
    const auto& phases = kids[i];
    a.six_phases = a.six_phases && phases.size() == 6;
    a.driver_ms.push_back(static_cast<double>(self[i]) * 1e-6);
    a.step_ns += static_cast<double>(spans[i].end - spans[i].start);
    double attributed = static_cast<double>(self[i]);
    double crit = 0.0;
    double ideal = 0.0;
    std::vector<double> force(static_cast<std::size_t>(ranks), 0.0);
    for (std::size_t k = 0; k < phases.size() && k < 6; ++k) {
      const std::int32_t phase = phases[k];
      a.phase_ms[k].push_back(ms(phase));
      attributed += static_cast<double>(self[static_cast<std::size_t>(phase)]);
      std::vector<double> bodies;
      for (const std::int32_t body : kids[static_cast<std::size_t>(phase)]) {
        attributed += static_cast<double>(self[static_cast<std::size_t>(body)]);
        bodies.push_back(ms(body));
        if (k != 4) continue;
        const auto it =
            std::find(rank_names.begin(), rank_names.end(),
                      spans[static_cast<std::size_t>(body)].name);
        force[static_cast<std::size_t>(it - rank_names.begin())] =
            ms(body) * 1e-3;
      }
      if (bodies.empty()) continue;
      crit += *std::max_element(bodies.begin(), bodies.end());
      ideal += lpt_makespan(bodies, static_cast<int>(nproc));
    }
    a.attributed_ns += attributed;
    a.crit_path_ms.push_back(crit);
    a.ideal_ms.push_back(ideal);
    double sum = 0.0;
    for (const double f : force) sum += f;
    const double mean = sum / static_cast<double>(ranks);
    a.host_imbalance.push_back(
        mean > 0.0 ? *std::max_element(force.begin(), force.end()) / mean - 1
                   : 0.0);
    a.force_host.push_back(std::move(force));
  }
  return a;
}

template <typename Body>
double median_us(int reps, Body&& body) {
  std::vector<double> us;
  for (int rep = 0; rep < reps; ++rep) {
    const std::int64_t start = now_ns();
    body();
    us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
  }
  return median(us);
}

// md kernel probes on one particle state: binning, SoA pack, the full
// force sweep and the Verlet half-steps.
void probe_kernel(const System& system, const md::ParticleVector& state,
                  int reps, std::vector<double>& bins_us,
                  std::vector<double>& pack_us,
                  std::vector<double>& ns_per_pair,
                  std::vector<double>& integrate_ns) {
  const Box box = system.spec.system.box();
  const int k = system.spec.system.cells_per_axis();
  const md::CellGrid grid(box, k, k, k);
  const md::LennardJones lj(system.spec.system.cutoff);
  const md::VelocityVerlet verlet(system.spec.system.dt);
  std::vector<int> all_cells(static_cast<std::size_t>(grid.num_cells()));
  for (int c = 0; c < grid.num_cells(); ++c) {
    all_cells[static_cast<std::size_t>(c)] = c;
  }
  md::CellBins bins;
  md::ForceWorkspace workspace;
  const double n = static_cast<double>(state.size());
  for (int rep = 0; rep < reps; ++rep) {
    std::int64_t start = now_ns();
    bins.rebuild(grid, state);
    bins_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);

    start = now_ns();
    workspace.load(state, bins);
    pack_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);

    md::ParticleVector copy = state;
    start = now_ns();
    const auto forces =
        md::accumulate_forces(copy, grid, bins, all_cells, lj, workspace);
    ns_per_pair.push_back(static_cast<double>(now_ns() - start) /
                          static_cast<double>(forces.pair_evaluations));

    start = now_ns();
    verlet.drift(copy, box);
    verlet.kick(copy);
    integrate_ns.push_back(static_cast<double>(now_ns() - start) / n);
  }
}

// ddm probes on a final state: checkpoint, one balancer decision per rank
// on the final ownership maps, and the halo/particle wire codecs.
void probe_ddm(const System& system, ddm::ParallelMd& md, int reps,
               RunResult& result) {
  sim::Buffer checkpoint;
  result.metrics["ddm.checkpoint_ms"] =
      1e-3 * median_us(reps, [&] { checkpoint = md.checkpoint(); });
  result.metrics["ddm.checkpoint_bytes"] =
      static_cast<double>(checkpoint.size());

  const auto& layout = md.layout();
  const auto& grid = md.grid();
  const auto particles = md.gather_particles();
  std::vector<double> column_load(
      static_cast<std::size_t>(layout.num_columns()), 0.0);
  for (const auto& p : particles) {
    const auto c = grid.coord_of(grid.cell_of_position(p.position));
    column_load[static_cast<std::size_t>(layout.column_id(c.x, c.y))] += 1.0;
  }
  std::vector<core::NeighborTimes> times(
      static_cast<std::size_t>(layout.pe_count()));
  for (int r = 0; r < layout.pe_count(); ++r) {
    auto& t = times[static_cast<std::size_t>(r)];
    t.self_time = md.force_seconds(r);
    for (const int nb : layout.pe_torus().neighbors8(r)) {
      t.neighbor_times.push_back(md.force_seconds(nb));
    }
  }
  const auto balancer = ddm::make_balancer(layout, system.spec.dlb,
                                           system.spec.balancer);
  const std::function<double(int)> load = [&](int col) {
    return column_load[static_cast<std::size_t>(col)];
  };
  result.metrics["ddm.balancer.decide_us"] =
      median_us(reps,
                [&] {
                  for (int r = 0; r < layout.pe_count(); ++r) {
                    (void)balancer->decide(r, md.column_map_view(r),
                                           times[static_cast<std::size_t>(r)],
                                           load);
                  }
                }) /
      layout.pe_count();

  std::vector<ddm::HaloRecord> halo;
  halo.reserve(particles.size());
  for (const auto& p : particles) halo.push_back({p.id, p.position});
  const double records = static_cast<double>(particles.size());
  bool round_trip = true;
  result.metrics["ddm.wire.halo_ns_per_rec"] =
      1e3 *
      median_us(reps,
                [&] {
                  const auto back = ddm::unpack_halo(ddm::pack_halo(halo));
                  round_trip = round_trip && back.size() == halo.size();
                }) /
      records;
  result.metrics["ddm.wire.particle_ns_per_rec"] =
      1e3 *
      median_us(reps,
                [&] {
                  const auto back =
                      ddm::unpack_particles(ddm::pack_particles(particles));
                  round_trip = round_trip && back.size() == particles.size();
                }) /
      records;
  result.check(round_trip, "wire codecs round-trip every record");
}

double empty_phase_us(sim::Engine& engine, int reps) {
  return median_us(3, [&] {
           for (int i = 0; i < reps; ++i) engine.run_phase([](sim::Comm&) {});
         }) /
         reps;
}

}  // namespace

System make_system(const std::string& name, std::uint64_t seed) {
  System system;
  run::RunSpec& spec = system.spec;
  spec.with_seed(seed);
  if (name == "gas_p16") {
    spec.with_pe_count(16).with_m(3).with_density(0.384);
  } else if (name == "droplet_p36") {
    spec.with_pe_count(36).with_m(2);
  } else if (name == "serve_job") {
    spec.with_pe_count(9).with_m(2).with_density(0.2);
  } else {
    throw std::invalid_argument("make_system: unknown system " + name);
  }
  if (name == "droplet_p36") {
    system.initial = make_droplet(spec.system.box(), seed);
    // As a job the droplet can only be named by its mean density.
    spec.with_density(static_cast<double>(system.initial.size()) /
                      spec.system.box().volume());
  } else {
    Rng rng(seed);
    system.initial = workload::make_paper_system(spec.system, rng);
  }
  std::ostringstream flags;
  flags << "--pe " << spec.system.pe_count << " --m " << spec.system.m
        << " --density " << spec.system.density;
  system.job_flags = flags.str();
  return system;
}

RunResult run_md_timed(const RunContext& context) {
  const WorkloadDef& workload = *context.workload;
  const Shape shape = context.tiny ? kTinyShape : kShape;
  RunResult result;

  const auto setup_once = [&] {
    return time_setup(workload.system, context.seed, workload.tier);
  };
  setup_once();  // warms the allocator and the stencil cache
  std::vector<double> setup;
  const System system = make_system(workload.system, context.seed);
  const auto n = static_cast<std::int64_t>(system.initial.size());
  std::vector<double> step_seconds;
  EpisodeLog first;
  const std::int64_t start = now_ns();
  for (int episode = 0;; ++episode) {
    // Set-up samples interleave with the episodes, so they see the same
    // host conditions as the timed steps rather than a burst at the start.
    for (int rep = 0; rep < kSetupRepsPerEpisode; ++rep) {
      setup.push_back(setup_once());
    }
    EpisodeLog log = run_tier(system, workload.tier, shape);
    result.check(log.particles_conserved,
                 "total_particles == N on every step");
    if (workload.tier != Tier::kSerial) {
      result.check(log.ownership_ok, "check_ownership() at the episode end");
    }
    if (episode == 0) {
      first = log;
    } else {
      result.check(same_trajectory(log, first),
                   "episode repeats the first episode bitwise");
    }
    step_seconds.insert(step_seconds.end(), log.step_seconds.begin(),
                        log.step_seconds.end());
    if (context.tiny || seconds_since(start) >= context.seconds) break;
  }
  add_timing_metrics(step_seconds, n, result);
  result.metrics["setup_s"] = median(setup);

  // The same episode on the other tiers, untimed.
  const EpisodeLog seq = workload.tier == Tier::kSeq
                             ? first
                             : run_tier(system, Tier::kSeq, shape);
  if (workload.tier == Tier::kThread) {
    result.check(same_trajectory(first, seq),
                 "ThreadEngine digest, pairs and virtual time equal "
                 "SeqEngine's");
  }
  const EpisodeLog serial = workload.tier == Tier::kSerial
                                ? first
                                : run_tier(system, Tier::kSerial, shape);
  check_energy_parity(seq, serial, result);
  return result;
}

void probe_md_layers(const System& system, const RunContext& context,
                     RunResult& result) {
  const Shape shape = context.tiny ? kTinyShape : kShape;
  const int ranks = system.spec.system.pe_count;
  const int reps = context.tiny ? 2 : 10;
  SpanLog& log = *context.spans;

  // Untraced references on the same particles.
  const EpisodeLog seq = run_tier(system, Tier::kSeq, shape);
  const EpisodeLog thread = run_tier(system, Tier::kThread, shape);
  result.check(same_trajectory(thread, seq),
               "ThreadEngine matches SeqEngine on the probed system");
  obs::TraceCollector collector;
  sim::SeqEngine collected_engine(ranks);
  EpisodeOptions with_collector;
  with_collector.collector = &collector;
  const EpisodeLog collected =
      run_parallel(system, collected_engine, shape, with_collector);
  result.check(same_trajectory(collected, seq),
               "an attached TraceCollector leaves the trajectory unchanged");

  // Traced episodes for about a quarter of the budget.
  std::vector<std::vector<double>> force_virtual;  // per traced step
  std::vector<double> virtual_imbalance;
  std::vector<double> traced_seconds;
  std::vector<double> bins_us, pack_us, ns_per_pair, integrate_ns;
  std::int64_t traced_steps = 0;
  const std::int64_t start = now_ns();
  for (int episode = 0;; ++episode) {
    TracedSeqEngine engine(ranks, log);
    EpisodeOptions options;
    options.traced = &engine;
    options.first_trace_id = traced_steps;
    options.after_step = [&](const ddm::ParallelMd& md,
                             const ddm::ParallelStepStats& stats) {
      std::vector<double> force(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        force[static_cast<std::size_t>(r)] = md.force_seconds(r);
      }
      force_virtual.push_back(std::move(force));
      virtual_imbalance.push_back(stats.imbalance);
    };
    if (episode == 0) {
      options.at_end = [&](ddm::ParallelMd& md) {
        probe_ddm(system, md, reps, result);
        probe_kernel(system, md.gather_particles(), reps, bins_us, pack_us,
                     ns_per_pair, integrate_ns);
      };
    }
    const EpisodeLog traced = run_parallel(system, engine, shape, options);
    result.check(same_trajectory(traced, seq),
                 "traced SeqEngine digest equals the untraced one");
    traced_seconds.insert(traced_seconds.end(), traced.step_seconds.begin(),
                          traced.step_seconds.end());
    traced_steps += shape.timed;
    if (episode == 0) {
      result.metrics["ddm.transfers"] = traced.transfers;
      result.metrics["sim.msgs_per_step"] =
          static_cast<double>(traced.messages) / shape.timed;
      result.metrics["sim.bytes_per_step"] =
          static_cast<double>(traced.bytes) / shape.timed;
      double pairs = 0.0;
      for (int i = shape.warmup; i < shape.warmup + shape.timed; ++i) {
        pairs += static_cast<double>(traced.pairs[static_cast<std::size_t>(i)]);
      }
      result.metrics["md.pairs_per_step"] = pairs / shape.timed;
    }
    if (context.tiny || seconds_since(start) >= context.seconds / 4) break;
  }

  const Attribution a = attribute(log, ranks);
  result.check(a.six_phases && a.driver_ms.size() == force_virtual.size(),
               "every traced step has the six BSP phases");
  const double closure = a.attributed_ns / a.step_ns;
  result.check(closure >= 0.95 && closure <= 1.05,
               "phase, rank and driver self times close to the step span");
  result.metrics["ddm.closure"] = closure;
  const char* phase_keys[6] = {"ddm.phase.A_ms", "ddm.phase.B_ms",
                               "ddm.phase.C_ms", "ddm.phase.D_ms",
                               "ddm.phase.E_ms", "ddm.phase.F_ms"};
  for (std::size_t k = 0; k < 6; ++k) {
    result.metrics[phase_keys[k]] = median(a.phase_ms[k]);
  }
  result.metrics["ddm.driver_ms"] = median(a.driver_ms);
  result.metrics["ddm.crit_path_ms"] = median(a.crit_path_ms);
  result.metrics["ddm.host_imbalance"] = median(a.host_imbalance);
  result.metrics["ddm.virtual_imbalance"] = median(virtual_imbalance);
  std::vector<double> host, modelled;
  for (std::size_t s = 0; s < a.force_host.size() && s < force_virtual.size();
       ++s) {
    host.insert(host.end(), a.force_host[s].begin(), a.force_host[s].end());
    modelled.insert(modelled.end(), force_virtual[s].begin(),
                    force_virtual[s].end());
  }
  result.metrics["ddm.cost_model_r"] = pearson_r(host, modelled);

  const double seq_ms = 1e3 * median(seq.step_seconds);
  const double thread_ms = 1e3 * median(thread.step_seconds);
  const double ideal_ms = median(a.ideal_ms);
  result.metrics["sim.ideal_nproc_ms"] = ideal_ms;
  result.metrics["sim.thread_efficiency"] = ideal_ms / thread_ms;
  result.metrics["sim.thread_speedup"] = seq_ms / thread_ms;
  result.metrics["trace.overhead_frac"] =
      1e3 * median(traced_seconds) / seq_ms - 1.0;
  result.metrics["obs.trace_overhead_frac"] =
      1e3 * median(collected.step_seconds) / seq_ms - 1.0;

  probe_kernel(system, system.initial, reps, bins_us, pack_us, ns_per_pair,
               integrate_ns);
  result.metrics["md.bins_us"] = median(bins_us);
  result.metrics["md.pack_us"] = median(pack_us);
  result.metrics["md.force.ns_per_pair"] = median(ns_per_pair);
  result.metrics["md.integrate_ns_per_particle"] = median(integrate_ns);

  const int phases = context.tiny ? 50 : 1000;
  sim::SeqEngine seq_engine(ranks);
  result.metrics["sim.phase_us.seq"] = empty_phase_us(seq_engine, phases);
  sim::ThreadEngine thread_engine(ranks);
  result.metrics["sim.phase_us.thread"] =
      empty_phase_us(thread_engine, phases);
}

}  // namespace pcmd::ledger
