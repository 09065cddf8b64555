// The benchmark's four workloads. Each episode builds its world through the
// public harness/chaos APIs from one seed, runs it single-threaded inside
// the simulator, checks its outputs, and reports modeled metrics (exact for
// the seed) plus the host cost of simulating it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host.h"

namespace perfbench {

/// Workload names, in the order the README documents them.
const std::vector<std::string>& workload_names();

struct Episode {
  bool correct = true;
  std::string error;        // first failed check, when !correct
  uint64_t digest = 0;      // model_digest: replies folded with final state
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t events = 0;      // simulator events fired while measuring
  double setup_s = 0.0;     // host: world built through leader establishment
  double measured_ops = 0;  // numerator of host_ops_per_s
  double sim_host_s = 0.0;  // host seconds spent simulating the measured phases
  // Host ns of each measured step, in order: every run_until chunk of the
  // warm-up, window and cool-down (chaos-mix: every run_one call). The
  // steps are the same in every episode of a seed.
  std::vector<int64_t> chunk_ns;
  std::vector<int64_t> calib_ns;  // calibration_ns() right after each step
  Metrics modeled;          // modeled end-to-end metrics
  Metrics layer;            // per-layer metrics (traced episodes only)
};

/// Runs one episode of `workload` from `seed`. With a tracer, hangs the
/// per-layer observers on the world and records spans into it; the modeled
/// run itself is unchanged. `setup_only` stops after the world is built
/// (only setup_s is filled in).
Episode run_episode(const std::string& workload, uint64_t seed,
                    Tracer* tracer, bool setup_only = false);

}  // namespace perfbench
