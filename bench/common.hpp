// Shared helpers for the bench binaries: canonical system specs, the
// overfull (alpha(m)+1) encoding table the impossibility experiments need,
// the --json/--quiet CLI contract every bench main speaks, and small
// formatting conveniences.
#pragma once

#include <sys/resource.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <streambuf>
#include <string>

#include "channel/del_channel.hpp"
#include "channel/dup_channel.hpp"
#include "channel/fifo_channel.hpp"
#include "channel/schedulers.hpp"
#include "obs/report.hpp"
#include "proto/encoded.hpp"
#include "proto/suite.hpp"
#include "seq/alpha.hpp"
#include "seq/repetition_free.hpp"
#include "stp/runner.hpp"
#include "stp/soak.hpp"
#include "util/expect.hpp"

namespace stpx::bench {

// --- bench CLI: every bench main accepts --json <path> and --quiet --------

struct BenchCli {
  std::string json_path;  // empty = no report file
  bool quiet = false;     // suppress the human-readable tables
};

inline BenchCli parse_bench_cli(int argc, char** argv) {
  BenchCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": --json needs a path\n";
        std::exit(2);
      }
      cli.json_path = argv[++i];
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--json <path>] [--quiet]\n"
                   "  --json <path>  write a machine-readable BENCH report\n"
                   "  --quiet        suppress the human-readable output\n";
      std::exit(0);
    } else {
      std::cerr << argv[0] << ": unknown flag " << arg
                << " (try --help)\n";
      std::exit(2);
    }
  }
  return cli;
}

/// CPU seconds (user + system) the process has used so far.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// One bench invocation: parses the CLI, silences std::cout under --quiet,
/// accumulates sweep/soak results, and emits the BENCH_<name>.json report
/// from finish().  Intended shape of a main():
///
///   int main(int argc, char** argv) {
///     BenchRun bench("f1_dup_overhead", argc, argv);
///     ...
///     bench.record(sweep_result);              // as results arrive
///     ...
///     return bench.finish(shape_confirmed);
///   }
class BenchRun {
 public:
  BenchRun(std::string name, int argc, char** argv)
      : name_(std::move(name)), cli_(parse_bench_cli(argc, argv)) {
    if (cli_.quiet) saved_ = std::cout.rdbuf(&null_buf_);
  }

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  ~BenchRun() {
    if (saved_ != nullptr) std::cout.rdbuf(saved_);
  }

  const BenchCli& cli() const { return cli_; }

  /// Record a bench parameter for the report (stringly-typed key/value).
  void param(const std::string& key, const std::string& value) {
    params_.emplace_back(key, value);
  }
  void param(const std::string& key, std::int64_t value) {
    params_.emplace_back(key, std::to_string(value));
  }

  /// Fold trial aggregates into the report.
  void record(const stp::SweepResult& r) { merged_.merge(r); }
  void record(const stp::SoakReport& r) {
    stp::SweepResult as_sweep;
    as_sweep.trials = r.trials;
    as_sweep.safety_failures = r.safety_violations;
    as_sweep.recovery_failures = r.recovery_violations;
    as_sweep.stabilization_failures = r.stabilization_violations;
    as_sweep.stalled = r.stalled;
    as_sweep.exhausted = r.exhausted;
    as_sweep.incomplete = r.stalled + r.exhausted;
    as_sweep.total_steps = r.total_steps;
    as_sweep.total_msgs_sent = r.total_msgs_sent;
    as_sweep.write_latencies = r.write_latencies;
    as_sweep.trial_steps = r.trial_steps;
    merged_.merge(as_sweep);
  }
  /// Manual fold for benches that do not run stp sweeps.
  void record_trial(std::uint64_t steps, std::uint64_t msgs, bool completed) {
    ++merged_.trials;
    merged_.total_steps += steps;
    merged_.total_msgs_sent += msgs;
    merged_.trial_steps.push_back(steps);
    if (!completed) {
      ++merged_.incomplete;
      ++merged_.exhausted;
    }
  }

  /// Attach a metrics snapshot (MetricsRegistry::to_json()) to the report.
  void metrics_json(std::string json) { metrics_json_ = std::move(json); }

  /// Record one numeric figure of merit into the report's "perf" block.
  void metric(std::string name, double value, std::string unit) {
    perf_.push_back({std::move(name), value, std::move(unit)});
  }

  /// Write the JSON report if requested; returns the process exit code.
  int finish(bool ok) {
    if (!cli_.json_path.empty()) {
      obs::SweepReport rep = stp::report_of(name_, merged_);
      rep.params = params_;
      rep.ok = ok;
      rep.metrics_json = metrics_json_;
      rep.perf = perf_;
      rep.write_json_file(cli_.json_path);
      if (!cli_.quiet) {
        std::cout << "\nreport: " << cli_.json_path << "\n";
      }
    }
    return ok ? 0 : 1;
  }

 private:
  /// Discards everything written to it (backs std::cout under --quiet).
  struct NullBuf final : std::streambuf {
    int overflow(int c) override { return c == EOF ? 0 : c; }
    std::streamsize xsputn(const char*, std::streamsize n) override {
      return n;
    }
  };

  std::string name_;
  BenchCli cli_;
  stp::SweepResult merged_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::string metrics_json_;
  std::vector<obs::SweepReport::Figure> perf_;
  NullBuf null_buf_;
  std::streambuf* saved_ = nullptr;
};

inline stp::SystemSpec repfree_dup_spec(int m, double delivery_weight = 2.0) {
  stp::SystemSpec spec;
  spec.protocols = [m] { return proto::make_repfree_dup(m); };
  spec.channel = [](std::uint64_t) {
    return std::make_unique<channel::DupChannel>();
  };
  spec.scheduler = [delivery_weight](std::uint64_t seed) {
    channel::FairRandomConfig cfg;
    cfg.seed = seed;
    cfg.delivery_weight = delivery_weight;
    return std::make_unique<channel::FairRandomScheduler>(cfg);
  };
  spec.engine.max_steps = 500000;
  return spec;
}

inline stp::SystemSpec repfree_del_spec(int m, double loss) {
  stp::SystemSpec spec;
  spec.protocols = [m] { return proto::make_repfree_del(m); };
  spec.channel = [loss](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(loss, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 500000;
  return spec;
}

/// The canonical valid encoding for the full repetition-free family.
inline proto::EncodingTable canonical_table(int m) {
  auto enc = seq::try_build_encoding(seq::canonical_repetition_free(m), m);
  STPX_EXPECT(enc.has_value(), "canonical encoding must exist");
  return std::make_shared<const seq::Encoding>(std::move(*enc));
}

/// The canonical encoding plus the extra input <0 0>.  By the pigeonhole no
/// valid word exists for it; we give it the word of the longest existing
/// entry starting with symbol 0, producing exactly the collision Theorem 1
/// predicts.  Requires m >= 1.
inline proto::EncodingTable overfull_table(int m) {
  auto enc = seq::try_build_encoding(seq::canonical_repetition_free(m), m);
  STPX_EXPECT(enc.has_value(), "canonical encoding must exist");
  std::size_t donor = SIZE_MAX;
  std::size_t donor_len = 0;
  for (std::size_t i = 0; i < enc->inputs.size(); ++i) {
    if (!enc->inputs[i].empty() && enc->inputs[i][0] == 0 &&
        enc->inputs[i].size() >= donor_len) {
      donor = i;
      donor_len = enc->inputs[i].size();
    }
  }
  STPX_EXPECT(donor != SIZE_MAX, "no donor entry starting with 0");
  enc->inputs.push_back(seq::Sequence{0, 0});
  enc->words.push_back(enc->words[donor]);
  return std::make_shared<const seq::Encoding>(std::move(*enc));
}

/// System spec around an encoding table.  knowledge=false -> greedy
/// receiver; del_mode -> deletion channel + retransmission.
inline stp::SystemSpec encoded_spec(proto::EncodingTable table,
                                    bool knowledge, bool del_mode) {
  stp::SystemSpec spec;
  spec.protocols = [table, knowledge, del_mode] {
    proto::ProtocolPair pair;
    pair.sender = std::make_unique<proto::EncodedSender>(table, del_mode);
    if (knowledge) {
      pair.receiver =
          std::make_unique<proto::KnowledgeReceiver>(table, del_mode);
    } else {
      pair.receiver =
          std::make_unique<proto::GreedyReceiver>(table, del_mode);
    }
    return pair;
  };
  if (del_mode) {
    spec.channel = [](std::uint64_t seed) {
      return std::make_unique<channel::DelChannel>(0.0, seed);
    };
  } else {
    spec.channel = [](std::uint64_t) {
      return std::make_unique<channel::DupChannel>();
    };
  }
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 200000;
  return spec;
}

/// 0,1,...,n-1 — the canonical long repetition-free input.
inline seq::Sequence iota_sequence(int n) {
  seq::Sequence x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = i;
  return x;
}

inline std::vector<std::uint64_t> seed_range(std::uint64_t first,
                                             std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = first + i;
  return seeds;
}

}  // namespace stpx::bench
