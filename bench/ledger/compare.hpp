// Compare mode: decides whether a change improved, kept or regressed each
// metric, from ledger files (--out) of alternating parent/change runs.
#pragma once

#include <string>
#include <vector>

namespace pcmd::ledger {

// Pairs parents[i] with changes[i] (run alternately, same seed). For each
// workload x metric prints both sides' median and quartiles, the share of
// pairs the change won (ties count for neither) and, for end-to-end
// metrics, a verdict:
//
//   improved    the change won >= 90% of pairs and the medians differ by
//               more than the parent's interquartile distance;
//   unresolved  the parent's own spread exceeds the bound, unless every
//               change run beats every parent run;
//   regressed   the change's median is worse by more than the bound;
//   unchanged   otherwise.
//
// Returns 1 when any metric regressed, 0 otherwise; throws
// std::runtime_error on unreadable or mismatched input.
int compare(const std::vector<std::string>& parents,
            const std::vector<std::string>& changes);

}  // namespace pcmd::ledger
