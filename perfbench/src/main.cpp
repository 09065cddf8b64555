// perfbench: one seeded benchmark over the modeled and host performance
// planes. Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
// Repeats the workload's seeded episode until S host seconds have passed,
// reports modeled metrics (identical in every episode) and host metrics
// (throughput from each step's fastest repetition and set-up as a median,
// both at the reference clock of host.h; per-layer times as medians of raw
// CPU time), and checks every episode's outputs. With --trace 1, episodes alternate untraced and traced; the
// traced ones give the per-layer metrics and their spans are written under
// kSpanDir at exit.
// The last stdout line is one JSON object with every metric.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "host.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Where traced runs leave their spans (relative to the working directory).
constexpr const char* kSpanDir = ".bench_build/perfbench-out";

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               why);
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed needs an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || a.seconds <= 0) usage("--seconds needs a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const auto& w : workload_names()) known = known || w == a.workload;
  if (!known) usage(("unknown workload '" + a.workload + "'").c_str());
  return a;
}

void print_metric(const std::string& name, const Metric& m) {
  std::printf("  %-38s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
}

/// mkdir -p for a relative path.
bool make_dirs(const std::string& path) {
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    const std::string prefix = path.substr(0, pos);
    if (!prefix.empty() && mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return false;
    }
  }
  return true;
}

/// Reference-clock ns of each step of `ep`: its CPU time scaled by
/// kCalibRefNs over the median calibration pass of the 11 steps around it
/// (host.h). The median over neighbours follows the clock as it moves and
/// ignores a pass that an interrupt lengthened.
std::vector<double> ref_clock_steps_ns(const Episode& ep) {
  constexpr size_t kReach = 5;
  std::vector<double> out;
  for (size_t k = 0; k < ep.chunk_ns.size(); ++k) {
    const size_t lo = k < kReach ? 0 : k - kReach;
    const size_t hi = std::min(ep.calib_ns.size(), k + kReach + 1);
    const std::vector<int64_t> near(ep.calib_ns.begin() + static_cast<long>(lo),
                                    ep.calib_ns.begin() + static_cast<long>(hi));
    out.push_back(static_cast<double>(ep.chunk_ns[k]) * kCalibRefNs / median(near));
  }
  return out;
}

/// Reference-clock host seconds of one episode with each step (ep.chunk_ns)
/// at its fastest repetition over `eps`. Every episode of a run simulates
/// the same steps, and other tenants' cache and memory traffic on a shared
/// host only ever adds time to a step, so the fastest repetition is the
/// closest to the program's own cost. Whole-episode times on such a host
/// swing by up to 1.7x, which a median over one run does not average away.
double fastest_steps_s(const std::vector<Episode>& eps) {
  std::vector<double> best = ref_clock_steps_ns(eps.front());
  for (const Episode& ep : eps) {
    // A run with a different step count fails its checks; skip it here.
    if (ep.chunk_ns.size() != best.size()) continue;
    const std::vector<double> steps = ref_clock_steps_ns(ep);
    for (size_t k = 0; k < best.size(); ++k) best[k] = std::min(best[k], steps[k]);
  }
  double total = 0.0;
  for (const double ns : best) total += ns;
  return total / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Least episodes per run: untraced ones give the host medians; traced
  // ones (alternating with untraced) the per-layer figures.
  constexpr int kMinPlain = 5;
  constexpr int kMinTraced = 3;
  // setup_s is the median of the world builds made in a burst before every
  // episode, at the reference clock of the calibration passes between them
  // (host.h). On a shared host set-up runs fast or slow in phases of about
  // 100 ms; bursts spread over the whole run sample many of them. A burst is
  // at least this many builds and at least this long.
  constexpr int kSetupBurst = 10;
  constexpr double kSetupBurstS = 0.05;

  Tracer tracer;
  std::vector<Episode> plain, traced;
  const int64_t start = host_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(host_ns() - start) / 1e9;
  };
  std::vector<double> setups;  // reference-clock seconds
  const auto setup_burst = [&] {
    std::vector<double> builds;
    std::vector<int64_t> calibs;
    const int64_t burst0 = host_ns();
    for (int i = 0; i < kSetupBurst ||
                    static_cast<double>(host_ns() - burst0) / 1e9 < kSetupBurstS;
         ++i) {
      builds.push_back(
          run_episode(args.workload, args.seed, nullptr, true).setup_s);
      calibs.push_back(calibration_ns());
    }
    const double scale = kCalibRefNs / median(calibs);
    for (const double b : builds) setups.push_back(b * scale);
  };
  double rss_mb = 0.0;
  // Each episode, with the set-up burst before it, runs on the next CPU in
  // turn. On a shared host one vCPU can sit for seconds on a core whose
  // other hyperthread a busy tenant holds (set-up then takes 1.6x as long
  // there as on its neighbours); rotating makes every run sample every vCPU,
  // not whichever one the scheduler kept it on.
  const std::vector<int> cpus = allowed_cpus();
  // Untraced and traced episodes alternate in a traced run, so machine
  // noise hits both sides of the overhead ratio alike.
  for (int i = 0;; ++i) {
    const bool want_traced = args.trace && i % 2 == 1;
    const bool enough =
        static_cast<int>(plain.size()) >= (args.trace ? kMinTraced : kMinPlain) &&
        (!args.trace || static_cast<int>(traced.size()) >= kMinTraced);
    if (enough && elapsed_s() >= args.seconds) break;
    if (!cpus.empty()) {
      pin_to_cpu(cpus[(want_traced ? traced.size() : plain.size()) % cpus.size()]);
    }
    setup_burst();
    Episode ep = run_episode(args.workload, args.seed,
                             want_traced ? &tracer : nullptr);
    (want_traced ? traced : plain).push_back(std::move(ep));
    // One world's footprint: later episodes would only add heap churn.
    if (i == 0) rss_mb = peak_rss_mb();
  }

  // -- Checks: every episode passed, and all are the same modeled run -------
  bool correct = true;
  std::string error;
  const Episode& ref = plain.front();
  const auto check = [&](bool ok, const std::string& why) {
    if (!ok && correct) {
      correct = false;
      error = why;
    }
  };
  for (const auto* set : {&plain, &traced}) {
    for (const Episode& ep : *set) {
      check(ep.correct, ep.error);
      check(ep.digest == ref.digest,
            set == &traced ? "traced run changed model_digest"
                           : "model_digest differs between repeated episodes");
      check(ep.events == ref.events,
            set == &traced ? "traced run changed the simulator event count"
                           : "event count differs between repeated episodes");
      check(ep.chunk_ns.size() == ref.chunk_ns.size(),
            "episodes of one seed ran a different number of steps");
    }
  }

  // -- Metrics ------------------------------------------------------------------
  const auto host_median = [](const std::vector<Episode>& eps, auto f) {
    std::vector<double> v;
    for (const Episode& ep : eps) v.push_back(f(ep));
    return median(v);
  };
  const double plain_host_s = fastest_steps_s(plain);
  Metrics e2e = ref.modeled;
  e2e["host_ops_per_s"] = Metric{ref.measured_ops / plain_host_s, "ops/s"};
  e2e["setup_s"] = Metric{median(setups), "s"};
  if (args.workload == "chaos-mix") {
    e2e["chaos_runs_per_s"] =
        Metric{static_cast<double>(ref.attempted) / plain_host_s, "1/s"};
  }
  e2e["peak_rss_mb"] = Metric{rss_mb, "MB"};

  Metrics layer;
  if (args.trace) {
    // Modeled per-layer figures are identical across traced episodes; host
    // ones (ns, shares) are taken as the median over them.
    layer = traced.front().layer;
    for (auto& [name, m] : layer) {
      if (m.unit == "ns" || name == "harness.handle_share" ||
          name.rfind("chaos.run_ms.", 0) == 0) {
        m.value = host_median(traced, [&name = name](const Episode& ep) {
          return ep.layer.at(name).value;
        });
      }
    }
    layer["trace.overhead"] =
        Metric{fastest_steps_s(traced) / plain_host_s - 1.0, "ratio"};
    const std::string dir = kSpanDir;
    const std::string path = dir + "/spans-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!make_dirs(dir) || !tracer.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %s\n", path.c_str());
  }

  // -- Report -------------------------------------------------------------------
  std::printf("workload %s  seed %" PRIu64 "  episodes %zu untraced, %zu traced  "
              "(%.1f s)\n",
              args.workload.c_str(), args.seed, plain.size(), traced.size(),
              elapsed_s());
  std::printf("model_digest %016" PRIx64 "  attempted %" PRIu64 "  failed %" PRIu64
              "  correct %s%s%s\n",
              ref.digest, ref.attempted, ref.failed, correct ? "yes" : "NO",
              correct ? "" : ": ", error.c_str());
  for (const auto* set : {&plain, &traced}) {
    for (const Episode& ep : *set) {
      std::printf("  %s episode: setup %.6f s, simulate %.3f s, %.1f ops/s "
                  "(CPU time; calibration pass median %.0f ns)\n",
                  set == &plain ? "untraced" : "traced", ep.setup_s,
                  ep.sim_host_s, ep.measured_ops / ep.sim_host_s,
                  median(ep.calib_ns));
    }
  }
  std::printf("end-to-end:\n");
  for (const auto& [name, m] : e2e) print_metric(name, m);
  if (args.trace) {
    std::printf("per-layer:\n");
    for (const auto& [name, m] : layer) print_metric(name, m);
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(ref.attempted) +
                     ", \"failed\": " + std::to_string(ref.failed) +
                     ", \"model_digest\": \"";
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, ref.digest);
  json += hex;
  json += "\", \"metrics\": {";
  bool first = true;
  for (const Metrics* set : {&e2e, &layer}) {
    for (const auto& [name, m] : *set) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
      json += buf;
      first = false;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
