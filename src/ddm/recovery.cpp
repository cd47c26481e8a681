#include "ddm/recovery.hpp"

#include "md/checkpoint.hpp"

#include <cmath>
#include <cstdlib>
#include <utility>

namespace pcmd::ddm {

sim::Buffer pack_rank_envelope(const RankEnvelope& envelope) {
  sim::Packer packer;
  packer.put(envelope.role);
  packer.put(envelope.generation);
  packer.put(envelope.last_busy);
  packer.put(envelope.force_seconds);
  packer.put_vector(envelope.owned);
  packer.put_vector(envelope.owners);
  return md::seal_checkpoint(md::CheckpointKind::kBuddy, packer.take());
}

RankEnvelope unpack_rank_envelope(sim::Buffer sealed, int expect_columns) {
  try {
    sim::Unpacker unpacker(
        md::open_checkpoint(md::CheckpointKind::kBuddy, std::move(sealed)));
    RankEnvelope envelope;
    envelope.role = unpacker.get<std::int32_t>();
    envelope.generation = unpacker.get<std::int64_t>();
    envelope.last_busy = unpacker.get<double>();
    envelope.force_seconds = unpacker.get<double>();
    envelope.owned = unpacker.get_vector<md::Particle>();
    envelope.owners = unpacker.get_vector<std::int32_t>();
    if (!unpacker.exhausted()) {
      throw md::CheckpointError("buddy envelope: trailing bytes");
    }
    if (envelope.role < 0 || envelope.generation < 0) {
      throw md::CheckpointError("buddy envelope: negative role or generation");
    }
    if (static_cast<int>(envelope.owners.size()) != expect_columns) {
      throw md::CheckpointError(
          "buddy envelope: column-map view has " +
          std::to_string(envelope.owners.size()) + " columns, expected " +
          std::to_string(expect_columns));
    }
    return envelope;
  } catch (const std::out_of_range& error) {
    // Unpacker underflow / oversized vector count: same failure class as a
    // malformed envelope. Normalise so callers catch one type.
    throw md::CheckpointError(std::string("buddy envelope: ") + error.what());
  }
}

void EnvelopeWindow::push(std::int64_t generation, sim::Buffer sealed) {
  entries_[1] = std::move(entries_[0]);
  entries_[0] = Entry{generation, std::move(sealed)};
}

const sim::Buffer* EnvelopeWindow::find(std::int64_t generation) const {
  for (const auto& entry : entries_) {
    if (entry.generation == generation) return &entry.sealed;
  }
  return nullptr;
}

std::array<std::int64_t, 2> EnvelopeWindow::generations() const {
  return {entries_[0].generation, entries_[1].generation};
}

namespace {
// Energy-drift window: steps kept in the sliding window, and the relative
// deviation from the window mean that trips a rollback.
constexpr std::size_t kEnergyWindow = 8;
constexpr double kEnergyTolerance = 0.5;
}  // namespace

Watchdog::Report Watchdog::inspect(double total_energy, bool rebase,
                                   int suspect) {
  Report report;
  std::string reason;
  if (!std::isfinite(total_energy)) {
    reason = "non-finite total energy";
  } else if (suspect >= 0) {
    reason = "velocity alarm on role " + std::to_string(suspect);
  } else if (!rebase && !window_.empty()) {
    double mean = 0.0;
    for (const double e : window_) mean += e;
    mean /= static_cast<double>(window_.size());
    const double deviation = std::abs(total_energy - mean);
    if (deviation > kEnergyTolerance * (std::abs(mean) + 1.0)) {
      reason = "energy drift: |E - <E>| = " + std::to_string(deviation) +
               " against window mean " + std::to_string(mean);
    }
  }

  if (reason.empty()) {
    // Clean step: thermostat rescales restart the window (the jump is
    // legitimate), everything else extends it.
    if (rebase) window_.clear();
    window_.push_back(total_energy);
    while (window_.size() > kEnergyWindow) window_.pop_front();
    consecutive_rollbacks_ = 0;
    return report;
  }

  report.reason = reason;
  if (consecutive_rollbacks_ >= config_.max_rollbacks && suspect >= 0) {
    report.verdict = Verdict::kDeclareDead;
    report.suspect = suspect;
  } else {
    report.verdict = Verdict::kRollback;
    report.suspect = suspect;
  }
  return report;
}

void Watchdog::note_rollback() {
  window_.clear();
  ++consecutive_rollbacks_;
}

void Watchdog::note_recovered() {
  window_.clear();
  consecutive_rollbacks_ = 0;
}

}  // namespace pcmd::ddm
