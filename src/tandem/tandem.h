// Multi-hop (tandem) smoothing — the internetwork setting of Rexford &
// Towsley [15] in the paper's related work. A stream crosses a chain of
// store-and-forward hops, each with its own buffer, link rate and
// propagation delay. Every hop is a SmoothingServer (the generic algorithm,
// Eqs. (2)/(3), core/generic_algorithm.h) feeding its own FixedDelayLink,
// with its own clone of the drop policy, so pro-active policies drop early
// at every hop. All hops book their drops into the one end client's ledger
// and the one end-to-end report. The client plays frame k at
// k + sum(P_i) + D, where the end-to-end smoothing delay D must cover the
// worst-case queueing along the path: D = sum(ceil(B_i / R_i)) — the
// per-hop version of the B = D*R law. With one hop the tandem is the
// simulator's own step (tests pin whole-report equality).
//
// Restricted to unit-slice streams: inter-hop forwarding splits data at
// byte granularity, and with unit slices a partially-forwarded slice cannot
// exist, so per-hop drops stay well-defined. (Thm 3.5's optimality story is
// a unit-slice story anyway.)
//
// Questions this substrate answers (bench abl_tandem):
//   * homogeneous path: do downstream hops ever drop? (no — the first hop
//     shapes traffic to <= R per slot, so B_i >= R suffices downstream);
//   * where should a fixed buffer budget live when one hop is the
//     bottleneck? (at the bottleneck, and the bench quantifies the cost of
//     getting it wrong).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/drop_policy.h"
#include "core/generic_algorithm.h"
#include "core/link.h"
#include "core/metrics.h"
#include "core/slice.h"

namespace rtsmooth::tandem {

struct HopConfig {
  Bytes buffer = 1;     ///< B_i
  Bytes rate = 1;       ///< R_i, bytes per slot
  Time link_delay = 1;  ///< P_i of the link leaving this hop
};

struct TandemReport {
  SimReport end_to_end;            ///< offered / played / client tallies
  std::vector<Tally> hop_drops;    ///< each hop server's dropped()
  Time playout_offset = 0;         ///< sum(P_i) + D actually used
  Time smoothing_delay = 0;        ///< the D component
};

class TandemSimulator {
 public:
  /// `stream` must be unit-slice. One drop policy instance per hop is
  /// cloned from `policy`. If `smoothing_delay` < 0 it defaults to
  /// sum(ceil(B_i / R_i)) — the lossless-at-client choice.
  TandemSimulator(const Stream& stream, std::vector<HopConfig> hops,
                  const DropPolicy& policy, Time smoothing_delay = -1,
                  Bytes client_buffer = -1);

  /// Steps every hop in path order, forwarding each hop's delivery into the
  /// next hop's server in the same step, until the path and the client
  /// drain. Call once.
  TandemReport run();

 private:
  struct Hop {
    SmoothingServer server;
    std::unique_ptr<FixedDelayLink> link;
  };

  const Stream* stream_;
  std::vector<Hop> hops_;
  Time smoothing_delay_;
  Bytes client_buffer_;
  bool ran_ = false;
};

}  // namespace rtsmooth::tandem
