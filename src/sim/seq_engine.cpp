#include "sim/comm.hpp"

namespace pcmd::sim {

SeqEngine::SeqEngine(int ranks, MachineModel model)
    : PooledEngine(ranks, std::move(model), 1) {}

}  // namespace pcmd::sim
