// SchedulerSpec: the structured scheduler description.
//
// Pins the API redesign contract: config strings, JSON (string and object
// forms), and the struct itself are three views of one value — every pair
// of conversions round-trips exactly — and validation surfaces the same
// error strings build() throws, as structured issues.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sched/spec.hpp"
#include "util/json.hpp"

namespace dlaja::sched {
namespace {

// ---------------------------------------------------------------------------
// round trips

// Config strings whose parse must survive to_config_string() -> parse()
// unchanged (the canonical form equals the input for all of these).
const char* const kCanonicalSpecs[] = {
    "bidding",
    "bidding:fanout=probe:4",
    "bidding:fanout=cached:8",
    "bidding:window=0.5,learn=true",
    "baseline:declines=2,requeue_back=true",
    "spark-like",
    "delay:wait=1.5",
    "bar",
    "matchmaking",
    "random",
    "round-robin",
    "least-queue",
    "bidding:fed.partitions=2",
    "bidding:fanout=probe:2,fed.partitions=3,fed.spill_threshold=1.5",
    "baseline:fed.partitions=4,fed.weights=2:1:1:1,fed.digest_interval=2,"
    "fed.staleness_bound=6,fed.spill_threshold=1.2,fed.successor=0,"
    "fed.adoption_grace=10",
};

TEST(SchedulerSpecRoundTrip, ConfigStringSurvivesParseAndEmit) {
  for (const char* text : kCanonicalSpecs) {
    const SchedulerSpec spec = SchedulerSpec::parse(text);
    ASSERT_TRUE(spec.parse_error().empty()) << text << ": " << spec.parse_error();
    EXPECT_EQ(spec.to_config_string(), text);
    EXPECT_EQ(SchedulerSpec::parse(spec.to_config_string()), spec) << text;
  }
}

TEST(SchedulerSpecRoundTrip, JsonSurvivesEmitAndParse) {
  for (const char* text : kCanonicalSpecs) {
    const SchedulerSpec spec = SchedulerSpec::parse(text);
    const SchedulerSpec back = SchedulerSpec::from_json(spec.to_json());
    EXPECT_EQ(back, spec) << text;
  }
}

TEST(SchedulerSpecRoundTrip, PlainSpecsSerializeAsStrings) {
  // No federation -> the string wire form, so pre-federation scenario
  // files (and their golden serializations) stay byte-identical.
  const SchedulerSpec spec = SchedulerSpec::parse("bidding:fanout=probe:4");
  const json::Value doc = spec.to_json();
  ASSERT_TRUE(doc.is_string());
  EXPECT_EQ(doc.as_string(), "bidding:fanout=probe:4");
}

TEST(SchedulerSpecRoundTrip, FederatedSpecsSerializeAsObjects) {
  const SchedulerSpec spec = SchedulerSpec::parse("bidding:fed.partitions=2");
  const json::Value doc = spec.to_json();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.as_object().find("type")->as_string(), "bidding");
  const json::Value* fed = doc.as_object().find("federation");
  ASSERT_NE(fed, nullptr);
  EXPECT_EQ(fed->as_object().find("partitions")->as_number(), 2.0);
}

TEST(SchedulerSpecRoundTrip, ObjectFormMatchesConfigString) {
  const SchedulerSpec from_object = SchedulerSpec::from_json(json::parse(R"({
    "type": "bidding", "fanout": "probe:2", "window": 0.5,
    "federation": {"partitions": 2, "spill_threshold": 1.5}
  })"));
  const SchedulerSpec from_string =
      SchedulerSpec::parse("bidding:fanout=probe:2,window=0.5,fed.partitions=2,"
                           "fed.spill_threshold=1.5");
  EXPECT_EQ(from_object, from_string);
}

TEST(SchedulerSpecRoundTrip, AliasesNormalize) {
  const SchedulerSpec learned = SchedulerSpec::parse("bidding+learned");
  EXPECT_EQ(learned.type(), "bidding");
  EXPECT_EQ(learned.option("learn"), "true");
  // The emitted canonical form re-parses to the same spec.
  EXPECT_EQ(SchedulerSpec::parse(learned.to_config_string()), learned);
  // A "type" key runs the same alias normalization as the string form.
  const SchedulerSpec via_json =
      SchedulerSpec::from_json(json::parse(R"({"type": "bidding+learned"})"));
  EXPECT_EQ(via_json, learned);
}

// ---------------------------------------------------------------------------
// validation

TEST(SchedulerSpecValidate, UnknownSchedulerAndKeysKeepFactoryMessages) {
  // The error listings the factory printed must survive verbatim.
  const auto issues_for = [](const std::string& text, std::size_t workers = 0) {
    return SchedulerSpec::parse(text).validate(workers);
  };
  {
    const auto issues = issues_for("nonesuch");
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].field, "scheduler");
    EXPECT_NE(issues[0].message.find("unknown scheduler: nonesuch"), std::string::npos);
    EXPECT_NE(issues[0].message.find("known:"), std::string::npos);
  }
  {
    const auto issues = issues_for("bidding:widnow=2");
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].message.find("unknown key"), std::string::npos);
    EXPECT_NE(issues[0].message.find("widnow"), std::string::npos);
  }
  EXPECT_FALSE(issues_for("bidding:fanout=probe:0").empty());
  EXPECT_FALSE(issues_for("bidding:slack=fast").empty());
  EXPECT_FALSE(issues_for("matchmaking:x=1").empty());
  EXPECT_FALSE(issues_for("bidding:fanout=probe:400", 50).empty());
  EXPECT_TRUE(issues_for("bidding:fanout=probe:4", 50).empty());
}

TEST(SchedulerSpecValidate, FederationFieldChecks) {
  const auto one_issue_on = [](const std::string& text, std::size_t workers,
                               const std::string& field) {
    const auto issues = SchedulerSpec::parse(text).validate(workers);
    ASSERT_EQ(issues.size(), 1u) << text;
    EXPECT_EQ(issues[0].field, field) << issues[0].message;
  };
  one_issue_on("bidding:fed.partitions=0", 8, "scheduler.federation.partitions");
  one_issue_on("bidding:fed.partitions=9", 8, "scheduler.federation.partitions");
  one_issue_on("bidding:fed.partitions=2,fed.weights=1:2:3", 8,
               "scheduler.federation.weights");
  // probe fan-out must fit the *smallest partition*, not just the fleet.
  const auto issues =
      SchedulerSpec::parse("bidding:fanout=probe:3,fed.partitions=3").validate(8);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("smallest partition"), std::string::npos);
  EXPECT_TRUE(
      SchedulerSpec::parse("bidding:fanout=probe:2,fed.partitions=3").validate(8).empty());
}

TEST(SchedulerSpecValidate, BadStringsDeferTheErrorToValidateAndBuild) {
  // Implicit conversion from a malformed string must not throw (the field
  // assignment sites never did); the error surfaces downstream. A missing
  // '=' is a structural parse error...
  const SchedulerSpec malformed = std::string("bidding:window");
  EXPECT_FALSE(malformed.parse_error().empty());
  const auto issues = malformed.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].message, malformed.parse_error());
  EXPECT_THROW((void)malformed.build(1), std::invalid_argument);
  // ...while an unknown type parses fine and fails at validate/build with
  // the listing of known types.
  const SchedulerSpec unknown = std::string("nonesuch");
  EXPECT_TRUE(unknown.parse_error().empty());
  EXPECT_FALSE(unknown.validate().empty());
  EXPECT_THROW((void)unknown.build(1), std::invalid_argument);
}

TEST(SchedulerSpecValidate, IssuesFoldIntoExperimentValidate) {
  core::ExperimentSpec spec;
  spec.scheduler = "bidding:fanout=probe:400";
  spec.worker_count = 5;
  const auto issues = spec.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "scheduler");
  // Federation sub-issues keep their dotted field path through the fold.
  spec.scheduler = "bidding:fed.partitions=9";
  const auto fed_issues = spec.validate();
  ASSERT_EQ(fed_issues.size(), 1u);
  EXPECT_EQ(fed_issues[0].field, "scheduler.federation.partitions");
}

TEST(SchedulerSpecValidate, SchedCrashFaultsNeedFederation) {
  core::ExperimentSpec spec;
  spec.scheduler = "bidding";
  spec.faults = fault::FaultPlan::parse("sched_crash:s=0,at=5");
  ASSERT_EQ(spec.validate().size(), 1u);
  EXPECT_EQ(spec.validate()[0].field, "faults");

  spec.scheduler = "bidding:fed.partitions=2";
  spec.worker_count = 4;
  EXPECT_TRUE(spec.validate().empty());

  spec.faults = fault::FaultPlan::parse("sched_crash:s=2,at=5");
  const auto issues = spec.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("instance 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// build + options

TEST(SchedulerSpecBuild, FederationGatesTheWrapper) {
  EXPECT_EQ(SchedulerSpec::parse("bidding").build(1)->name(), "bidding");
  // partitions=1 with other federation fields set still builds the plain
  // policy: the inert-federation identity every golden relies on.
  EXPECT_EQ(SchedulerSpec::parse("bidding:fed.partitions=1,fed.spill_threshold=2")
                .build(1)
                ->name(),
            "bidding");
  EXPECT_EQ(SchedulerSpec::parse("bidding:fed.partitions=2").build(1)->name(),
            "fed(bidding)x2");
  EXPECT_EQ(SchedulerSpec::parse("baseline:fed.partitions=3").build(1)->name(),
            "fed(baseline)x3");
}

TEST(SchedulerSpecOptions, LaterValuesWinAndSetReplaces) {
  SchedulerSpec spec = SchedulerSpec::parse("bidding:window=1,window=2");
  EXPECT_EQ(spec.option("window"), "2");
  spec.set_option("window", "3");
  EXPECT_EQ(spec.option("window"), "3");
  EXPECT_EQ(spec.option("absent"), "");
}

// ---------------------------------------------------------------------------
// partitioning

TEST(FederationSpec, UnweightedPartitionsStripeNearEqually) {
  FederationSpec fed;
  fed.partitions = 3;
  const auto sizes = fed.partition_sizes(8);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0] + sizes[1] + sizes[2], 8u);
  EXPECT_EQ(sizes[0], 3u);  // i % N striping: worker 0,3,6
  EXPECT_EQ(sizes[1], 3u);
  EXPECT_EQ(sizes[2], 2u);
  for (std::uint32_t w = 0; w < 8; ++w) {
    EXPECT_EQ(fed.partition_of(w, 8), w % 3);
  }
}

TEST(FederationSpec, WeightedPartitionsUseLargestRemainder) {
  FederationSpec fed;
  fed.partitions = 2;
  fed.weights = {3.0, 1.0};
  const auto sizes = fed.partition_sizes(8);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 6u);
  EXPECT_EQ(sizes[1], 2u);
  // Weighted splits are contiguous blocks; every worker maps inside one.
  for (std::uint32_t w = 0; w < 6; ++w) EXPECT_EQ(fed.partition_of(w, 8), 0u);
  for (std::uint32_t w = 6; w < 8; ++w) EXPECT_EQ(fed.partition_of(w, 8), 1u);
}

}  // namespace
}  // namespace dlaja::sched
