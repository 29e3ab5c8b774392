#pragma once
// SchedulerSpec: the one scheduler API.
//
// Every way a scheduler reaches the engine — config strings
// ("bidding:fanout=probe:4"), scenario JSON (a "scheduler" string or
// object), CLI flags — parses into this struct once and flows from here:
// validation, serialization, and construction all read the same fields, so
// no call site re-parses strings and no two surfaces can drift apart.
// Callers build with `SchedulerSpec(text).build(seed)` and check with
// `.validate(workers)`.
//
// Two interchangeable wire forms round-trip through the struct:
//
//   config string   "bidding:fanout=probe:4,fed.partitions=2"
//   JSON            {"type": "bidding", "fanout": "probe:4",
//                    "federation": {"partitions": 2}}
//
// A JSON "scheduler" value may be either form (a plain string is
// parse-sugar). to_json() emits the string form when no federation is
// configured — existing scenario files stay byte-identical — and the
// object form otherwise.
//
// Config-string grammar: "name" or "name:key=val,key=val,...". Values may
// themselves contain ':' (e.g. "bidding:fanout=probe:4"); keys are
// comma-separated. Unknown names and unknown keys are errors that list the
// valid choices.
//
// Per-scheduler keys:
//   bidding     fanout=full|probe:K|cached:K  window=<s>  serialize=<bool>
//               learn=<bool>  alpha=<0..1>  slack=<s>
//   baseline    declines=<n>  prefetch=<n>  requeue_back=<bool>
//   spark-like  placement=rr|hash  wave=<bool>
//   delay       skips=<n>
//   bar         window=<s>  moves=<n>
//   matchmaking, random, round-robin, least-queue: no keys
//
// The legacy alias names ("bidding+learned", "spark-like+hash",
// "spark-like+wave") keep working and may be combined with options.
//
// Federation ("fed." config keys / the "federation" JSON object) splits the
// fleet across N concurrent scheduler instances, each running this spec's
// policy over its own worker partition (see sched/federation.hpp).
// `partitions <= 1` builds the plain policy scheduler with no federation
// layer at all, bit-identical to a spec with no federation keys.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/json.hpp"

namespace dlaja::sched {

/// One structured problem found by SchedulerSpec::validate().
/// ExperimentSpec::validate() folds these into its own issue list.
struct SpecIssue {
  std::string field;    ///< "scheduler" or "scheduler.federation.<key>"
  std::string message;  ///< what is wrong and what would be valid
};

/// Federated control-plane shape: how many scheduler instances share the
/// fleet and how they coordinate. Inert at the default `partitions = 1`.
struct FederationSpec {
  /// Concurrent scheduler instances; workers are split across them
  /// (`i % N` without weights, size-weighted contiguous blocks with).
  std::uint32_t partitions = 1;

  /// Relative partition sizes (one per partition, positive). Empty =
  /// unweighted `i % N` striping.
  std::vector<double> weights;

  /// Cadence of each instance's broker-published load digest (simulated
  /// seconds). Digests are the *only* cross-partition load signal.
  double digest_interval_s = 5.0;

  /// A digest older than this is treated as unknown: its partition is not
  /// eligible as a spill target (the eventual-consistency staleness bound).
  double staleness_bound_s = 15.0;

  /// Spill when an instance's own load (queued+running jobs per live
  /// worker) exceeds this and a fresher digest shows a lighter partition.
  /// 0 disables spill (jobs stay in their home partition).
  double spill_threshold = 0.0;

  /// Partition that adopts a crashed instance's pending jobs after its
  /// leases expire. -1 = the next live partition in index order.
  std::int32_t successor = -1;

  /// How long after a scheduler crash adoption kicks in (lets in-flight
  /// completions land; the analogue of waiting out the crashed instance's
  /// leases).
  double adoption_grace_s = 30.0;

  [[nodiscard]] bool active() const noexcept { return partitions > 1; }
  [[nodiscard]] bool spilling() const noexcept { return spill_threshold > 0.0; }
  bool operator==(const FederationSpec&) const = default;

  /// Partition sizes for a fleet of `worker_count` (largest-remainder for
  /// weighted specs, near-equal otherwise). The federation layer and
  /// validate() share this so they can never disagree.
  [[nodiscard]] std::vector<std::uint32_t> partition_sizes(std::size_t worker_count) const;

  /// The partition worker `w` belongs to under this spec.
  [[nodiscard]] std::uint32_t partition_of(std::uint32_t w, std::size_t worker_count) const;
};

class SchedulerSpec {
 public:
  using Option = std::pair<std::string, std::string>;

  /// Default: the paper's bidding scheduler, no options, no federation.
  SchedulerSpec() = default;

  /// Parse-sugar: a config string converts implicitly, so call sites keep
  /// writing `spec.scheduler = "bidding:fanout=probe:4"`. A malformed
  /// string does NOT throw here — the error is stored and surfaces from
  /// validate() (as an issue) or build() (as std::invalid_argument),
  /// matching where string errors always surfaced.
  SchedulerSpec(const std::string& config);  // NOLINT(google-explicit-constructor)
  SchedulerSpec(const char* config);         // NOLINT(google-explicit-constructor)

  /// The config-string form (see the grammar above; federation fields
  /// ride along as "fed.partitions=2,fed.spill_threshold=1.5",
  /// with "fed.weights" colon-separated: "fed.weights=2:1").
  [[nodiscard]] static SchedulerSpec parse(const std::string& config);

  /// The JSON form: a string (config-string sugar) or an object with
  /// "type", per-scheduler option keys, and an optional "federation"
  /// object. Throws std::invalid_argument on structural errors (non-string
  /// non-object values, unknown federation keys, a missing "type").
  [[nodiscard]] static SchedulerSpec from_json(const json::Value& doc);

  /// String form when no federation is configured (so scenario files that
  /// never asked for federation stay unchanged), object form otherwise.
  /// from_json(to_json(s)) == s.
  [[nodiscard]] json::Value to_json() const;

  /// Canonical config string; parse(to_config_string(s)) == s. Legacy '+'
  /// aliases normalize ("bidding+learned" emits as "bidding:learn=true").
  [[nodiscard]] std::string to_config_string() const;

  /// Structured validation: the stored parse error if any, unknown
  /// scheduler names / option keys / bad values (the messages build()
  /// throws), a probe/cached fan-out k exceeding the fleet —
  /// or, federated, the smallest partition — and federation field checks.
  /// `worker_count = 0` skips the fleet-dependent checks.
  [[nodiscard]] std::vector<SpecIssue> validate(std::size_t worker_count = 0) const;

  /// Constructs the scheduler this spec describes: the plain policy
  /// scheduler when `federation.partitions <= 1`, a FederatedScheduler
  /// wrapping `partitions` instances of the policy otherwise. Throws
  /// std::invalid_argument on any problem validate() would report about
  /// the policy itself. `seed` drives the random push policy and the
  /// federation layer; a run passes its own seed.
  [[nodiscard]] std::unique_ptr<Scheduler> build(std::uint64_t seed) const;

  /// The single-instance policy scheduler, ignoring `federation` — what
  /// each federated instance runs internally.
  [[nodiscard]] std::unique_ptr<Scheduler> build_policy(std::uint64_t seed) const;

  /// Every scheduler name parse() accepts, legacy aliases included, in the
  /// order the "unknown scheduler" error lists them.
  [[nodiscard]] static const std::vector<std::string>& known_types();

  /// Base scheduler name after alias normalization ("bidding", ...).
  [[nodiscard]] const std::string& type() const noexcept { return type_; }

  /// Policy options in declaration order (federation keys live in
  /// `federation`, not here).
  [[nodiscard]] const std::vector<Option>& options() const noexcept { return options_; }

  /// Last value of `key`, or "" when absent (later options win, matching
  /// the builders' application order).
  [[nodiscard]] std::string option(const std::string& key) const;

  /// Sets (replacing any prior occurrence) or appends a policy option.
  void set_option(const std::string& key, const std::string& value);

  /// The config-string parse error carried by this spec ("" = none).
  [[nodiscard]] const std::string& parse_error() const noexcept { return parse_error_; }

  bool operator==(const SchedulerSpec& other) const {
    return type_ == other.type_ && options_ == other.options_ &&
           federation == other.federation && parse_error_ == other.parse_error_;
  }

  FederationSpec federation;

 private:
  std::string type_ = "bidding";
  std::vector<Option> options_;
  /// Deferred config-string error: parse() never throws so that assigning
  /// a bad string to ExperimentSpec::scheduler keeps failing at
  /// validate()/build() time, exactly as the raw string field did.
  std::string parse_error_;
  /// The original config string when parse_error_ is set (so error
  /// messages and to_config_string() can echo what the user wrote).
  std::string raw_;
};

}  // namespace dlaja::sched
