#include "sched/spec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sched/bar.hpp"
#include "sched/baseline.hpp"
#include "sched/bidding.hpp"
#include "sched/delay.hpp"
#include "sched/federation.hpp"
#include "sched/matchmaking.hpp"
#include "sched/simple.hpp"
#include "sched/spark_like.hpp"
#include "util/table.hpp"

namespace dlaja::sched {

namespace {

using Option = SchedulerSpec::Option;

/// Config-string keys addressing FederationSpec fields (everything else in
/// a spec's option list belongs to the policy).
constexpr const char* kFedPrefix = "fed.";
constexpr const char* kFedKeys =
    "fed.partitions, fed.weights, fed.digest_interval, fed.staleness_bound, "
    "fed.spill_threshold, fed.successor, fed.adoption_grace";

[[noreturn]] void unknown_key(const std::string& name, const std::string& key,
                              const char* valid) {
  throw std::invalid_argument("scheduler '" + name + "': unknown key '" + key +
                              "' (valid keys: " + valid + ")");
}

[[noreturn]] void no_keys(const std::string& name, const std::string& key) {
  throw std::invalid_argument("scheduler '" + name + "' takes no options (got '" + key +
                              "')");
}

bool parse_bool(const std::string& name, const Option& option) {
  const std::string& v = option.second;
  if (v == "true" || v == "1" || v == "on" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "off" || v == "no") return false;
  throw std::invalid_argument("scheduler '" + name + "': key '" + option.first +
                              "' wants a bool, got '" + v + "'");
}

double parse_double(const std::string& name, const Option& option) {
  try {
    std::size_t used = 0;
    const double value = std::stod(option.second, &used);
    if (used == option.second.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("scheduler '" + name + "': key '" + option.first +
                              "' wants a number, got '" + option.second + "'");
}

std::uint32_t parse_uint(const std::string& name, const Option& option) {
  const double value = parse_double(name, option);
  if (value < 0.0 || value != static_cast<double>(static_cast<std::uint32_t>(value))) {
    throw std::invalid_argument("scheduler '" + name + "': key '" + option.first +
                                "' wants a non-negative integer, got '" + option.second + "'");
  }
  return static_cast<std::uint32_t>(value);
}

std::int32_t parse_int(const std::string& name, const Option& option) {
  const double value = parse_double(name, option);
  if (value != static_cast<double>(static_cast<std::int32_t>(value))) {
    throw std::invalid_argument("scheduler '" + name + "': key '" + option.first +
                                "' wants an integer, got '" + option.second + "'");
  }
  return static_cast<std::int32_t>(value);
}

BiddingConfig bidding_config(const std::string& name, const std::vector<Option>& options) {
  BiddingConfig config;
  for (const Option& option : options) {
    const std::string& key = option.first;
    if (key == "fanout") {
      config.fanout = FanoutPolicy::parse(option.second);
    } else if (key == "window") {
      config.window_s = parse_double(name, option);
    } else if (key == "serialize") {
      config.serialize_contests = parse_bool(name, option);
    } else if (key == "learn") {
      config.learn_correction = parse_bool(name, option);
    } else if (key == "alpha") {
      config.correction_alpha = parse_double(name, option);
    } else if (key == "slack") {
      config.decline_slack_s = parse_double(name, option);
    } else {
      unknown_key(name, key, "fanout, window, serialize, learn, alpha, slack");
    }
  }
  return config;
}

BaselineConfig baseline_config(const std::string& name, const std::vector<Option>& options) {
  BaselineConfig config;
  for (const Option& option : options) {
    const std::string& key = option.first;
    if (key == "declines") {
      config.max_declines_per_worker = parse_uint(name, option);
    } else if (key == "prefetch") {
      config.prefetch_depth = parse_uint(name, option);
    } else if (key == "requeue_back") {
      config.requeue_to_back = parse_bool(name, option);
    } else {
      unknown_key(name, key, "declines, prefetch, requeue_back");
    }
  }
  return config;
}

SparkLikeConfig spark_like_config(const std::string& name,
                                  const std::vector<Option>& options) {
  SparkLikeConfig config;
  for (const Option& option : options) {
    const std::string& key = option.first;
    if (key == "placement") {
      if (option.second == "rr") {
        config.placement = SparkLikeConfig::Placement::kRoundRobin;
      } else if (option.second == "hash") {
        config.placement = SparkLikeConfig::Placement::kHashByResource;
      } else {
        throw std::invalid_argument("scheduler 'spark-like': placement must be rr|hash, got '" +
                                    option.second + "'");
      }
    } else if (key == "wave") {
      config.wave_barrier = parse_bool(name, option);
    } else {
      unknown_key(name, key, "placement, wave");
    }
  }
  return config;
}

DelayConfig delay_config(const std::string& name, const std::vector<Option>& options) {
  DelayConfig config;
  for (const Option& option : options) {
    if (option.first == "skips") {
      config.max_skips = parse_uint(name, option);
    } else {
      unknown_key(name, option.first, "skips");
    }
  }
  return config;
}

BarConfig bar_config(const std::string& name, const std::vector<Option>& options) {
  BarConfig config;
  for (const Option& option : options) {
    const std::string& key = option.first;
    if (key == "window") {
      config.batch_window_s = parse_double(name, option);
    } else if (key == "moves") {
      config.max_rebalance_moves = parse_uint(name, option);
    } else {
      unknown_key(name, key, "window, moves");
    }
  }
  return config;
}

/// "2:1:1" -> {2, 1, 1}. Non-numeric entries throw with the fed.weights key.
std::vector<double> parse_weights(const std::string& name, const Option& option) {
  std::vector<double> weights;
  std::size_t pos = 0;
  const std::string& text = option.second;
  while (pos <= text.size()) {
    const std::size_t colon = text.find(':', pos);
    const std::string part =
        text.substr(pos, colon == std::string::npos ? std::string::npos : colon - pos);
    pos = colon == std::string::npos ? text.size() + 1 : colon + 1;
    if (part.empty()) continue;
    weights.push_back(parse_double(name, {option.first, part}));
  }
  return weights;
}

/// Applies one "fed.*" option to the federation block. Returns false when
/// the key is not a federation key at all.
bool apply_fed_option(const std::string& name, const Option& option, FederationSpec& fed) {
  const std::string& key = option.first;
  if (key.rfind(kFedPrefix, 0) != 0) return false;
  if (key == "fed.partitions") {
    fed.partitions = parse_uint(name, option);
  } else if (key == "fed.weights") {
    fed.weights = parse_weights(name, option);
  } else if (key == "fed.digest_interval") {
    fed.digest_interval_s = parse_double(name, option);
  } else if (key == "fed.staleness_bound") {
    fed.staleness_bound_s = parse_double(name, option);
  } else if (key == "fed.spill_threshold") {
    fed.spill_threshold = parse_double(name, option);
  } else if (key == "fed.successor") {
    fed.successor = parse_int(name, option);
  } else if (key == "fed.adoption_grace") {
    fed.adoption_grace_s = parse_double(name, option);
  } else {
    unknown_key(name, key, kFedKeys);
  }
  return true;
}

std::string join_names() {
  std::string names;
  for (const std::string& name : SchedulerSpec::known_types()) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return names;
}

}  // namespace

// ---------------------------------------------------------------------------
// FederationSpec

std::vector<std::uint32_t> FederationSpec::partition_sizes(std::size_t worker_count) const {
  const std::uint32_t n = std::max<std::uint32_t>(partitions, 1);
  std::vector<std::uint32_t> sizes(n, 0);
  if (weights.empty() || weights.size() != n) {
    // Unweighted striping: worker w lives in partition w % n.
    for (std::size_t w = 0; w < worker_count; ++w) ++sizes[w % n];
    return sizes;
  }
  // Largest-remainder apportionment of the weighted sizes: deterministic,
  // sums exactly to worker_count, ties broken by partition index.
  double total = 0.0;
  for (const double weight : weights) total += weight;
  std::vector<std::pair<double, std::uint32_t>> remainders(n);
  std::size_t assigned = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    const double exact = total > 0.0
                             ? static_cast<double>(worker_count) * weights[p] / total
                             : 0.0;
    sizes[p] = static_cast<std::uint32_t>(exact);
    assigned += sizes[p];
    remainders[p] = {exact - std::floor(exact), p};
  }
  std::sort(remainders.begin(), remainders.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; assigned < worker_count; ++assigned, ++i) {
    ++sizes[remainders[i % n].second];
  }
  return sizes;
}

std::uint32_t FederationSpec::partition_of(std::uint32_t w, std::size_t worker_count) const {
  const std::uint32_t n = std::max<std::uint32_t>(partitions, 1);
  if (weights.empty() || weights.size() != n) return w % n;
  // Weighted partitions own contiguous worker blocks in index order.
  const std::vector<std::uint32_t> sizes = partition_sizes(worker_count);
  std::uint32_t start = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    if (w < start + sizes[p]) return p;
    start += sizes[p];
  }
  return n - 1;
}

// ---------------------------------------------------------------------------
// SchedulerSpec: parsing

SchedulerSpec::SchedulerSpec(const std::string& config) { *this = parse(config); }
SchedulerSpec::SchedulerSpec(const char* config) { *this = parse(config); }

SchedulerSpec SchedulerSpec::parse(const std::string& config) {
  SchedulerSpec spec;
  spec.raw_ = config;
  const std::size_t colon = config.find(':');
  spec.type_ = config.substr(0, colon);

  // Legacy aliases: still accepted everywhere, and they compose with
  // options ("spark-like+hash:wave=true" works).
  if (spec.type_ == "bidding+learned") {
    spec.type_ = "bidding";
    spec.options_.emplace_back("learn", "true");
  } else if (spec.type_ == "spark-like+hash") {
    spec.type_ = "spark-like";
    spec.options_.emplace_back("placement", "hash");
  } else if (spec.type_ == "spark-like+wave") {
    spec.type_ = "spark-like";
    spec.options_.emplace_back("wave", "true");
  }

  if (colon == std::string::npos) return spec;
  const std::string body = config.substr(colon + 1);
  std::size_t pos = 0;
  while (pos <= body.size()) {
    const std::size_t comma = body.find(',', pos);
    const std::string pair =
        body.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? body.size() + 1 : comma + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      spec.parse_error_ = "bad scheduler spec '" + config + "': expected key=value, got '" +
                          pair + "'";
      spec.options_.clear();
      return spec;
    }
    Option option{pair.substr(0, eq), pair.substr(eq + 1)};
    try {
      if (!apply_fed_option(spec.type_, option, spec.federation)) {
        spec.options_.push_back(std::move(option));
      }
    } catch (const std::invalid_argument& error) {
      spec.parse_error_ = error.what();
      spec.options_.clear();
      return spec;
    }
  }
  return spec;
}

std::string SchedulerSpec::to_config_string() const {
  if (!parse_error_.empty()) return raw_;
  std::string out = type_;
  char sep = ':';
  const auto append = [&out, &sep](const std::string& key, const std::string& value) {
    out += sep;
    out += key;
    out += '=';
    out += value;
    sep = ',';
  };
  for (const Option& option : options_) append(option.first, option.second);
  const FederationSpec defaults;
  const FederationSpec& fed = federation;
  if (fed.partitions != defaults.partitions) {
    append("fed.partitions", std::to_string(fed.partitions));
  }
  if (!fed.weights.empty()) {
    std::string joined;
    for (const double weight : fed.weights) {
      if (!joined.empty()) joined += ':';
      joined += fmt_shortest(weight);
    }
    append("fed.weights", joined);
  }
  if (fed.digest_interval_s != defaults.digest_interval_s) {
    append("fed.digest_interval", fmt_shortest(fed.digest_interval_s));
  }
  if (fed.staleness_bound_s != defaults.staleness_bound_s) {
    append("fed.staleness_bound", fmt_shortest(fed.staleness_bound_s));
  }
  if (fed.spill_threshold != defaults.spill_threshold) {
    append("fed.spill_threshold", fmt_shortest(fed.spill_threshold));
  }
  if (fed.successor != defaults.successor) {
    append("fed.successor", std::to_string(fed.successor));
  }
  if (fed.adoption_grace_s != defaults.adoption_grace_s) {
    append("fed.adoption_grace", fmt_shortest(fed.adoption_grace_s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// SchedulerSpec: JSON

SchedulerSpec SchedulerSpec::from_json(const json::Value& doc) {
  if (doc.is_string()) return parse(doc.as_string());
  if (!doc.is_object()) {
    throw std::invalid_argument(
        "scheduler: wants a config string or an object with \"type\"");
  }
  SchedulerSpec spec;
  bool has_type = false;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "type") {
      if (!value.is_string()) {
        throw std::invalid_argument("scheduler: key 'type' wants a string");
      }
      // Run the alias normalization the string form gets ("bidding+learned"
      // as a type behaves like the config string would).
      const SchedulerSpec alias = parse(value.as_string());
      spec.type_ = alias.type_;
      // Alias-implied options go first so explicit keys can override them.
      spec.options_.insert(spec.options_.begin(), alias.options_.begin(),
                           alias.options_.end());
      has_type = true;
    } else if (key == "federation") {
      if (!value.is_object()) {
        throw std::invalid_argument("scheduler: key 'federation' wants an object");
      }
      FederationSpec fed;
      for (const auto& [fkey, fvalue] : value.as_object()) {
        const auto need_number = [&](const json::Value& v) {
          if (!v.is_number()) {
            throw std::invalid_argument("scheduler: federation key '" + fkey +
                                        "' wants a number");
          }
          return v.as_number();
        };
        if (fkey == "partitions") {
          const double n = need_number(fvalue);
          if (n < 0.0 || n != static_cast<double>(static_cast<std::uint32_t>(n))) {
            throw std::invalid_argument(
                "scheduler: federation key 'partitions' wants a non-negative integer");
          }
          fed.partitions = static_cast<std::uint32_t>(n);
        } else if (fkey == "weights") {
          if (!fvalue.is_array()) {
            throw std::invalid_argument(
                "scheduler: federation key 'weights' wants an array of numbers");
          }
          fed.weights.clear();
          for (const json::Value& entry : fvalue.as_array()) {
            if (!entry.is_number()) {
              throw std::invalid_argument(
                  "scheduler: federation key 'weights' wants an array of numbers");
            }
            fed.weights.push_back(entry.as_number());
          }
        } else if (fkey == "digest_interval_s") {
          fed.digest_interval_s = need_number(fvalue);
        } else if (fkey == "staleness_bound_s") {
          fed.staleness_bound_s = need_number(fvalue);
        } else if (fkey == "spill_threshold") {
          fed.spill_threshold = need_number(fvalue);
        } else if (fkey == "successor") {
          const double s = need_number(fvalue);
          if (s != static_cast<double>(static_cast<std::int32_t>(s))) {
            throw std::invalid_argument(
                "scheduler: federation key 'successor' wants an integer");
          }
          fed.successor = static_cast<std::int32_t>(s);
        } else if (fkey == "adoption_grace_s") {
          fed.adoption_grace_s = need_number(fvalue);
        } else {
          throw std::invalid_argument(
              "scheduler: unknown federation key '" + fkey +
              "' (valid: partitions, weights, digest_interval_s, staleness_bound_s, "
              "spill_threshold, successor, adoption_grace_s)");
        }
      }
      spec.federation = std::move(fed);
    } else {
      // A policy option: values serialize to the same strings the config
      // form uses, so the builders see identical input either way.
      std::string text;
      if (value.is_string()) {
        text = value.as_string();
      } else if (value.is_number()) {
        text = fmt_shortest(value.as_number());
      } else if (value.is_bool()) {
        text = value.as_bool() ? "true" : "false";
      } else {
        throw std::invalid_argument("scheduler: key '" + key +
                                    "' wants a string, number or bool");
      }
      spec.options_.emplace_back(key, std::move(text));
    }
  }
  if (!has_type) {
    throw std::invalid_argument("scheduler: object form needs a \"type\" key");
  }
  return spec;
}

json::Value SchedulerSpec::to_json() const {
  if (!federation.active() && federation == FederationSpec{}) {
    return json::Value{to_config_string()};
  }
  json::Object obj;
  obj["type"] = type_;
  for (const Option& option : options_) obj[option.first] = option.second;
  json::Object fed;
  const FederationSpec defaults;
  fed["partitions"] = static_cast<std::uint64_t>(federation.partitions);
  if (!federation.weights.empty()) {
    json::Array weights;
    for (const double weight : federation.weights) weights.emplace_back(weight);
    fed["weights"] = json::Value{std::move(weights)};
  }
  if (federation.digest_interval_s != defaults.digest_interval_s) {
    fed["digest_interval_s"] = federation.digest_interval_s;
  }
  if (federation.staleness_bound_s != defaults.staleness_bound_s) {
    fed["staleness_bound_s"] = federation.staleness_bound_s;
  }
  if (federation.spill_threshold != defaults.spill_threshold) {
    fed["spill_threshold"] = federation.spill_threshold;
  }
  if (federation.successor != defaults.successor) {
    fed["successor"] = static_cast<std::int64_t>(federation.successor);
  }
  if (federation.adoption_grace_s != defaults.adoption_grace_s) {
    fed["adoption_grace_s"] = federation.adoption_grace_s;
  }
  obj["federation"] = json::Value{std::move(fed)};
  return json::Value{std::move(obj)};
}

// ---------------------------------------------------------------------------
// SchedulerSpec: options

std::string SchedulerSpec::option(const std::string& key) const {
  std::string value;
  for (const Option& entry : options_) {
    if (entry.first == key) value = entry.second;
  }
  return value;
}

void SchedulerSpec::set_option(const std::string& key, const std::string& value) {
  // Drop duplicates so option()'s later-wins read cannot resurrect a value
  // this call was meant to replace.
  bool found = false;
  for (auto it = options_.begin(); it != options_.end();) {
    if (it->first != key) {
      ++it;
    } else if (!found) {
      it->second = value;
      found = true;
      ++it;
    } else {
      it = options_.erase(it);
    }
  }
  if (!found) options_.emplace_back(key, value);
}

// ---------------------------------------------------------------------------
// SchedulerSpec: build + validate

std::unique_ptr<Scheduler> SchedulerSpec::build_policy(std::uint64_t seed) const {
  if (!parse_error_.empty()) throw std::invalid_argument(parse_error_);
  if (type_ == "bidding") {
    return std::make_unique<BiddingScheduler>(bidding_config(type_, options_));
  }
  if (type_ == "baseline") {
    return std::make_unique<BaselineScheduler>(baseline_config(type_, options_));
  }
  if (type_ == "spark-like") {
    return std::make_unique<SparkLikeScheduler>(spark_like_config(type_, options_));
  }
  if (type_ == "delay") {
    return std::make_unique<DelayScheduler>(delay_config(type_, options_));
  }
  if (type_ == "bar") {
    return std::make_unique<BarScheduler>(bar_config(type_, options_));
  }
  if (type_ == "matchmaking") {
    if (!options_.empty()) no_keys(type_, options_.front().first);
    return std::make_unique<MatchmakingScheduler>();
  }
  if (type_ == "random") {
    if (!options_.empty()) no_keys(type_, options_.front().first);
    return std::make_unique<SimplePushScheduler>(PushPolicy::kRandom, seed);
  }
  if (type_ == "round-robin") {
    if (!options_.empty()) no_keys(type_, options_.front().first);
    return std::make_unique<SimplePushScheduler>(PushPolicy::kRoundRobin, seed);
  }
  if (type_ == "least-queue") {
    if (!options_.empty()) no_keys(type_, options_.front().first);
    return std::make_unique<SimplePushScheduler>(PushPolicy::kLeastQueue, seed);
  }
  throw std::invalid_argument("unknown scheduler: " + type_ + " (known: " + join_names() + ")");
}

std::unique_ptr<Scheduler> SchedulerSpec::build(std::uint64_t seed) const {
  // partitions <= 1 constructs the plain policy with no federation layer —
  // the bit-identity guarantee every pre-federation golden relies on.
  if (!federation.active()) return build_policy(seed);
  return std::make_unique<FederatedScheduler>(*this, seed);
}

const std::vector<std::string>& SchedulerSpec::known_types() {
  static const std::vector<std::string> names = {
      "bidding",         "bidding+learned", "baseline",    "spark-like",
      "spark-like+hash", "spark-like+wave", "matchmaking", "delay",
      "bar",             "random",          "round-robin", "least-queue"};
  return names;
}

std::vector<SpecIssue> SchedulerSpec::validate(std::size_t worker_count) const {
  std::vector<SpecIssue> issues;
  if (!parse_error_.empty()) {
    issues.push_back({"scheduler", parse_error_});
    return issues;
  }

  bool policy_ok = true;
  try {
    (void)build_policy(1);
  } catch (const std::invalid_argument& error) {
    issues.push_back({"scheduler", error.what()});
    policy_ok = false;
  }

  const FederationSpec& fed = federation;
  if (fed.partitions == 0) {
    issues.push_back(
        {"scheduler.federation.partitions", "need at least one partition (got 0)"});
  }
  if (worker_count > 0 && fed.partitions > worker_count) {
    issues.push_back({"scheduler.federation.partitions",
                      "more partitions (" + std::to_string(fed.partitions) +
                          ") than workers (" + std::to_string(worker_count) + ")"});
  }
  if (!fed.weights.empty() && fed.weights.size() != fed.partitions) {
    issues.push_back({"scheduler.federation.weights",
                      "need one weight per partition (got " +
                          std::to_string(fed.weights.size()) + " for " +
                          std::to_string(fed.partitions) + " partitions)"});
  }
  bool weights_ok = fed.weights.empty() || fed.weights.size() == fed.partitions;
  for (const double weight : fed.weights) {
    if (!(weight > 0.0) || !std::isfinite(weight)) {
      issues.push_back(
          {"scheduler.federation.weights", "weights must be positive and finite"});
      weights_ok = false;
      break;
    }
  }
  if (!(fed.digest_interval_s > 0.0) || !std::isfinite(fed.digest_interval_s)) {
    issues.push_back({"scheduler.federation.digest_interval_s",
                      "digest cadence must be positive and finite"});
  }
  if (!(fed.staleness_bound_s >= fed.digest_interval_s)) {
    issues.push_back({"scheduler.federation.staleness_bound_s",
                      "staleness bound must be >= digest_interval_s (a digest must "
                      "outlive at least one publishing period to ever be fresh)"});
  }
  if (fed.spill_threshold < 0.0 || std::isnan(fed.spill_threshold)) {
    issues.push_back({"scheduler.federation.spill_threshold",
                      "spill threshold must be >= 0 (0 disables spill)"});
  }
  if (fed.successor < -1 ||
      (fed.successor >= 0 && static_cast<std::uint32_t>(fed.successor) >= fed.partitions)) {
    issues.push_back({"scheduler.federation.successor",
                      "successor must be -1 (auto) or a partition index below " +
                          std::to_string(fed.partitions)});
  }
  if (fed.adoption_grace_s < 0.0 || std::isnan(fed.adoption_grace_s)) {
    issues.push_back(
        {"scheduler.federation.adoption_grace", "adoption grace must be >= 0 seconds"});
  }

  std::size_t min_partition = worker_count;
  if (fed.active() && weights_ok && worker_count > 0 && fed.partitions <= worker_count) {
    const std::vector<std::uint32_t> sizes = fed.partition_sizes(worker_count);
    for (std::uint32_t p = 0; p < sizes.size(); ++p) {
      min_partition = std::min<std::size_t>(min_partition, sizes[p]);
      if (sizes[p] == 0) {
        issues.push_back({"scheduler.federation.weights",
                          "weights leave partition " + std::to_string(p) +
                              " with zero workers"});
      }
    }
  }

  if (policy_ok && type_ == "bidding" && worker_count > 0) {
    const BiddingConfig config = bidding_config(type_, options_);
    // Non-federated: the verbatim fleet-level check. Federated: each
    // instance only ever sees its own partition, so k is bounded by the
    // smallest one.
    const bool fleet_check = !fed.active();
    const std::size_t bound = fleet_check ? worker_count : min_partition;
    if (config.fanout.probing() && config.fanout.probe_k > bound) {
      issues.push_back(
          {"scheduler",
           fleet_check
               ? "scheduler '" + to_config_string() + "': probe fan-out k=" +
                     std::to_string(config.fanout.probe_k) + " exceeds the fleet (" +
                     std::to_string(worker_count) + " workers)"
               : "scheduler '" + to_config_string() + "': probe fan-out k=" +
                     std::to_string(config.fanout.probe_k) +
                     " exceeds the smallest partition (" + std::to_string(bound) +
                     " workers)"});
    }
    if (config.fanout.cached() && config.fanout.probe_k > bound) {
      issues.push_back(
          {"scheduler",
           fleet_check
               ? "scheduler '" + to_config_string() + "': cached fan-out k=" +
                     std::to_string(config.fanout.probe_k) + " exceeds the fleet (" +
                     std::to_string(worker_count) + " workers)"
               : "scheduler '" + to_config_string() + "': cached fan-out k=" +
                     std::to_string(config.fanout.probe_k) +
                     " exceeds the smallest partition (" + std::to_string(bound) +
                     " workers)"});
    }
  }
  return issues;
}

}  // namespace dlaja::sched
