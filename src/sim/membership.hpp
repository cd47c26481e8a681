// Logical-role membership for self-healing SPMD programs.
//
// The recovery design separates two identities of a PE:
//
//   * a *role* is a logical PE of the paper's P-rank decomposition — it owns
//     permanent cells, appears in the column map, contributes DLB busy
//     times, and fills logical collective slots;
//   * a *physical rank* is a slot on the virtual machine (an Engine rank)
//     that *hosts* a role. With S spare ranks the engine has P + S physical
//     ranks, the last S of which start parked and roleless.
//
// The whole MD program computes in role space; only the comm boundary
// (ParallelMd::send_to / recv_from) translates role → physical. When a host
// dies, fail_over() bumps the membership *epoch* and reassigns the role to a
// spare — or retires the role if no spare is available (survivors then
// adopt its cells). Because everything above the boundary is written in
// role space, failover changes no arithmetic: collectives combine in role
// order, maps store role ids, and the resumed trajectory is bitwise
// identical to an undisturbed run.
//
// This class is plain bookkeeping, mutated only by the recovery driver
// between phases, and read (const) by phase bodies — same publication rule
// as Engine::alive.
#pragma once

#include <vector>

namespace pcmd::sim {

class Membership {
 public:
  // `roles` logical PEs hosted on `physical_ranks` >= roles engine ranks.
  // Role l starts on physical rank l; physical ranks [roles, physical_ranks)
  // start as parked spares.
  Membership(int roles, int physical_ranks);

  int roles() const { return roles_; }
  int physical_ranks() const { return physical_; }

  // Bumped by one on every fail_over. Epoch 0 is the initial assignment.
  int epoch() const { return epoch_; }

  // Physical host of a role; -1 if the role is retired (host died with no
  // spare left).
  int physical_of(int role) const;

  // Role hosted by a physical rank; -1 for spares and roleless ranks.
  int role_of(int physical) const;

  // True if the role currently has a host.
  bool role_alive(int role) const { return physical_of(role) >= 0; }

  // Number of roles with a live host.
  int alive_roles() const;

  // True if this physical rank is an unconsumed spare.
  bool is_spare(int physical) const;
  int spares_available() const;

  // The host of `role` died. Bumps the epoch; promotes the next spare and
  // returns its physical rank, or retires the role and returns -1 when the
  // spare pool is empty. The caller is responsible for unparking the
  // returned rank and restoring the role's state onto it.
  int fail_over(int role);

  // A spare died before ever being promoted: remove it from the pool.
  void spare_died(int physical);

 private:
  int roles_;
  int physical_;
  int epoch_ = 0;
  std::vector<int> physical_of_;  // role -> physical, -1 retired
  std::vector<int> role_of_;      // physical -> role, -1 spare/roleless
  std::vector<int> spare_pool_;   // unconsumed spares, promoted in order
};

}  // namespace pcmd::sim
