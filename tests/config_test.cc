// The configuration surface: the one `.properties` -> ExperimentConfig
// mapping (ExperimentConfig::FromConfig), the field walks of the fault-plan,
// workload and autoscaler JSON documents, and the strict scalar parser under
// all of them. Runs from the source root so the shipped configs' relative
// JSON paths resolve.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "core/experiment.h"
#include "fault/plan.h"
#include "obs/slo.h"
#include "scale/policy.h"
#include "scale/workload.h"

namespace crayfish {
namespace {

using core::ExperimentConfig;

StatusOr<ExperimentConfig> MapProperties(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(Config cfg, Config::FromProperties(text));
  return ExperimentConfig::FromConfig(cfg);
}

StatusOr<ExperimentConfig> MapFile(const std::string& path) {
  CRAYFISH_ASSIGN_OR_RETURN(Config cfg, Config::FromFile(path));
  return ExperimentConfig::FromConfig(cfg);
}

// Asserts `status` failed and its message contains every `needle`.
void ExpectRejected(const Status& status,
                    const std::vector<std::string>& needles) {
  ASSERT_FALSE(status.ok());
  for (const std::string& needle : needles) {
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << "\"" << status.message() << "\" does not name " << needle;
  }
}

// ------------------------------------------------------- shipped configs --

TEST(ShippedConfigTest, EveryExamplePropertiesFileMaps) {
  int mapped = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("examples/configs")) {
    if (entry.path().extension() != ".properties") continue;
    auto exp = MapFile(entry.path().string());
    EXPECT_TRUE(exp.ok()) << entry.path() << ": " << exp.status().ToString();
    ++mapped;
  }
  EXPECT_EQ(mapped, 6);
}

TEST(ShippedConfigTest, BurstyFig8MapsItsBurstSchedule) {
  auto exp = MapFile("examples/configs/bursty_fig8.properties");
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  EXPECT_TRUE(exp->bursty);
  EXPECT_DOUBLE_EQ(exp->input_rate, 961.0);
  EXPECT_DOUBLE_EQ(exp->burst_rate, 1510.0);
  EXPECT_DOUBLE_EQ(exp->burst_duration_s, 30.0);
  EXPECT_DOUBLE_EQ(exp->time_between_bursts_s, 120.0);
  EXPECT_DOUBLE_EQ(exp->first_burst_at_s, 120.0);
  EXPECT_DOUBLE_EQ(exp->duration_s, 570.0);
  EXPECT_DOUBLE_EQ(exp->drain_s, 30.0);
}

TEST(ShippedConfigTest, FaultedConfigLoadsItsPlanBeforeOverrides) {
  // "fault.crash0.at_s" sorts before "faults"; the override must still
  // edit the loaded plan rather than be wiped by it.
  auto exp = MapProperties(
      "faults = examples/configs/faults_broker_crash.json\n"
      "fault.crash0.at_s = 25\n"
      "fault.retry.max_retries = 3\n");
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  ASSERT_EQ(exp->fault_plan.faults.size(), 2u);
  EXPECT_DOUBLE_EQ(exp->fault_plan.faults[0].at_s, 25.0);
  EXPECT_EQ(exp->fault_plan.retry.max_retries, 3);
}

TEST(ShippedConfigTest, DottedKeysRouteByPrefix) {
  auto exp = MapProperties(
      "workload.kind = ramp\n"
      "workload.end_rate = 400\n"
      "autoscaler.max_replicas = 4\n"
      "flink.async_io = true\n"
      "kafka_streams.record_fixed_s = 0.001\n");
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  EXPECT_TRUE(exp->workload.enabled);
  EXPECT_EQ(exp->workload.shape.kind, scale::ShapeKind::kRamp);
  EXPECT_DOUBLE_EQ(exp->workload.shape.end_rate, 400.0);
  EXPECT_TRUE(exp->autoscaler.enabled);
  EXPECT_EQ(exp->autoscaler.max_replicas, 4);
  EXPECT_EQ(*exp->engine_overrides.GetString("flink.async_io"), "true");
  EXPECT_TRUE(exp->engine_overrides.Has("kafka_streams.record_fixed_s"));
  EXPECT_EQ(exp->engine_overrides.size(), 2u);
}

TEST(ShippedConfigTest, FaultPlanJsonParsesToItsFields) {
  auto plan =
      fault::FaultPlan::FromFile("examples/configs/faults_broker_crash.json");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->retry.max_retries, 10);
  EXPECT_DOUBLE_EQ(plan->retry.timeout_s, 1.0);
  EXPECT_DOUBLE_EQ(plan->retry.initial_backoff_s, 0.05);
  EXPECT_DOUBLE_EQ(plan->retry.backoff_multiplier, 2.0);
  EXPECT_DOUBLE_EQ(plan->retry.max_backoff_s, 2.0);
  EXPECT_DOUBLE_EQ(plan->retry.jitter, 0.2);
  EXPECT_DOUBLE_EQ(plan->auto_commit_interval_s, 1.0);
  ASSERT_EQ(plan->faults.size(), 2u);
  const fault::FaultSpec& crash = plan->faults[0];
  EXPECT_EQ(crash.kind, fault::FaultKind::kBrokerCrash);
  EXPECT_EQ(crash.name, "crash0");
  EXPECT_DOUBLE_EQ(crash.at_s, 30.0);
  EXPECT_DOUBLE_EQ(crash.until_s, 45.0);
  EXPECT_EQ(crash.broker, 0);
  const fault::FaultSpec& net = plan->faults[1];
  EXPECT_EQ(net.kind, fault::FaultKind::kLinkDegrade);
  EXPECT_EQ(net.name, "slow-net");
  EXPECT_EQ(net.from, "*");
  EXPECT_EQ(net.to, "*");
  EXPECT_DOUBLE_EQ(net.at_s, 50.0);
  EXPECT_DOUBLE_EQ(net.until_s, 55.0);
  EXPECT_DOUBLE_EQ(net.latency_mult, 4.0);
  EXPECT_DOUBLE_EQ(net.bandwidth_mult, 0.25);
  EXPECT_FALSE(net.drop);
}

TEST(ShippedConfigTest, WorkloadJsonParsesToItsFields) {
  auto spec =
      scale::WorkloadSpec::FromFile("examples/configs/workload_flash_crowd.json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->enabled);
  EXPECT_EQ(spec->shape.kind, scale::ShapeKind::kFlashCrowd);
  EXPECT_DOUBLE_EQ(spec->shape.base_rate, 150.0);
  EXPECT_DOUBLE_EQ(spec->shape.spike_at_s, 12.0);
  EXPECT_DOUBLE_EQ(spec->shape.spike_mult, 6.0);
  EXPECT_DOUBLE_EQ(spec->shape.ramp_up_s, 2.0);
  EXPECT_DOUBLE_EQ(spec->shape.hold_s, 10.0);
  EXPECT_DOUBLE_EQ(spec->shape.decay_s, 4.0);
  EXPECT_EQ(spec->shape.seed, 42u);
  EXPECT_DOUBLE_EQ(spec->shape.jitter, 0.0);
  EXPECT_EQ(spec->tenants, 4);
  EXPECT_EQ(spec->tenant_partitions, 8);
  EXPECT_DOUBLE_EQ(spec->tenant_rate_factor, 0.05);
  EXPECT_EQ(spec->fleet_hosts, 50);
  EXPECT_EQ(spec->tenant_topic_prefix, "crayfish-bg-");
}

TEST(ShippedConfigTest, AutoscalerJsonParsesToItsFields) {
  auto policy =
      scale::PolicyConfig::FromFile("examples/configs/autoscaler_reactive.json");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_TRUE(policy->enabled);
  EXPECT_EQ(policy->kind, "reactive");
  EXPECT_DOUBLE_EQ(policy->interval_s, 2.0);
  EXPECT_EQ(policy->min_replicas, 1);
  EXPECT_EQ(policy->max_replicas, 6);
  EXPECT_EQ(policy->step, 2);
  EXPECT_DOUBLE_EQ(policy->cooldown_s, 4.0);
  EXPECT_EQ(policy->scale_in_hysteresis, 3);
  EXPECT_DOUBLE_EQ(policy->scale_up_lag, 60.0);
  EXPECT_DOUBLE_EQ(policy->scale_down_lag, 5.0);
  EXPECT_DOUBLE_EQ(policy->scale_up_utilization, 0.85);
  EXPECT_DOUBLE_EQ(policy->scale_down_utilization, 0.35);
  EXPECT_DOUBLE_EQ(policy->hw_alpha, 0.5);
  EXPECT_EQ(policy->seed, 42u);
}

TEST(ShippedConfigTest, SloJsonParsesToItsSpecs) {
  auto slo = obs::SloConfig::FromFile("examples/configs/slo_default.json");
  ASSERT_TRUE(slo.ok()) << slo.status().ToString();
  ASSERT_EQ(slo->slos.size(), 3u);
  const obs::SloSpec& p99 = slo->slos[0];
  EXPECT_EQ(p99.name, "p99-latency");
  EXPECT_EQ(p99.metric, "p99_latency_s");
  EXPECT_TRUE(p99.has_max);
  EXPECT_FALSE(p99.has_min);
  EXPECT_DOUBLE_EQ(p99.max, 0.1);
  EXPECT_DOUBLE_EQ(p99.error_budget, 0.05);
  const obs::SloSpec& goodput = slo->slos[1];
  EXPECT_EQ(goodput.name, "goodput");
  EXPECT_EQ(goodput.metric, "throughput_eps");
  EXPECT_FALSE(goodput.has_max);
  EXPECT_TRUE(goodput.has_min);
  EXPECT_DOUBLE_EQ(goodput.min, 500.0);
  EXPECT_DOUBLE_EQ(goodput.error_budget, 0.2);
  const obs::SloSpec& lag = slo->slos[2];
  EXPECT_EQ(lag.name, "bounded-lag");
  EXPECT_EQ(lag.metric, "consumer_lag");
  EXPECT_TRUE(lag.has_max);
  EXPECT_FALSE(lag.has_min);
  EXPECT_DOUBLE_EQ(lag.max, 5000.0);
  EXPECT_DOUBLE_EQ(lag.error_budget, 0.2);
}

TEST(ShippedConfigTest, WorkloadShapeMayNestOrSitFlat) {
  auto nested = scale::WorkloadSpec::FromJsonText(
      R"({"shape": {"kind": "replay", "points": [[0, 10], {"t_s": 5, "rate": 20}]},
          "fleet_hosts": 3})");
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(nested->shape.kind, scale::ShapeKind::kReplay);
  ASSERT_EQ(nested->shape.points.size(), 2u);
  EXPECT_DOUBLE_EQ(nested->shape.points[1].t_s, 5.0);
  EXPECT_DOUBLE_EQ(nested->shape.points[1].rate, 20.0);
  EXPECT_EQ(nested->fleet_hosts, 3);
}

// ------------------------------------------------------------ rejections --

TEST(ConfigRejectionTest, MalformedValueNamesItsKey) {
  ExpectRejected(MapProperties("bsz = eight\n").status(), {"bsz", "eight"});
  ExpectRejected(MapProperties("mp = 2.7\n").status(), {"mp", "2.7"});
  ExpectRejected(MapProperties("seed = -1\n").status(), {"seed"});
  ExpectRejected(MapProperties("ir = 100 # events/s\n").status(), {"ir"});
  ExpectRejected(MapProperties("gpu = ture\n").status(), {"gpu"});
  ExpectRejected(MapProperties("workload.base_rate = fast\n").status(),
                 {"workload.base_rate"});
}

TEST(ConfigRejectionTest, UnknownKeySuggestsTheNearestDeclaredOne) {
  ExpectRejected(MapProperties("duration_sx = 2\n").status(),
                 {"duration_sx", "did you mean \"duration_s\""});
  // Nothing within two edits: no suggestion.
  const Status far = MapProperties("velocity = 2\n").status();
  ExpectRejected(far, {"velocity"});
  EXPECT_EQ(far.message().find("did you mean"), std::string::npos);
}

TEST(ConfigRejectionTest, UnknownPrefixIsRejected) {
  ExpectRejected(MapProperties("nonsense.key = 1\n").status(),
                 {"nonsense.key"});
  ExpectRejected(MapProperties("flnk.async_io = true\n").status(),
                 {"flnk.async_io", "did you mean \"flink\""});
  ExpectRejected(MapProperties("autoscaler.nope = 1\n").status(),
                 {"autoscaler.nope"});
}

TEST(ConfigRejectionTest, MissingDocumentNamesItsKey) {
  ExpectRejected(MapProperties("workload = /nonexistent/w.json\n").status(),
                 {"workload", "/nonexistent/w.json"});
}

TEST(ConfigRejectionTest, JsonDocumentFieldsAreCheckedByName) {
  ExpectRejected(
      scale::WorkloadSpec::FromJsonText(R"({"base_rate": "abc"})").status(),
      {"base_rate", "abc"});
  ExpectRejected(scale::WorkloadSpec::FromJsonText(R"({"tenantz": 2})").status(),
                 {"tenantz"});
  ExpectRejected(
      scale::WorkloadSpec::FromJsonText(R"({"tenants": 2.7})").status(),
      {"tenants"});
  ExpectRejected(
      scale::WorkloadSpec::FromJsonText(R"({"shape": {"seed": -1}})").status(),
      {"seed"});
  ExpectRejected(scale::WorkloadSpec::FromJsonText(
                     R"({"kind": "replay", "points": [{"t": 1, "rate": 2}]})")
                     .status(),
                 {"\"t\""});
  ExpectRejected(
      scale::PolicyConfig::FromJsonText(R"({"max_replicas": "six"})").status(),
      {"max_replicas"});
  ExpectRejected(
      scale::PolicyConfig::FromJsonText(R"({"cooldwn_s": 4})").status(),
      {"cooldwn_s"});
  ExpectRejected(
      fault::FaultPlan::FromJsonText(
          R"({"faults": [{"kind": "broker_crash", "name": "c0", "at_s": 1,
                          "brokr": 0}]})")
          .status(),
      {"c0.brokr"});
  ExpectRejected(fault::FaultPlan::FromJsonText(
                     R"({"retry": {"max_retries": 2.5}})")
                     .status(),
                 {"retry.max_retries"});
  ExpectRejected(
      fault::FaultPlan::FromJsonText(R"({"faults": [{"at_s": 1}]})").status(),
      {"faults[0]", "kind"});
}

TEST(ConfigRejectionTest, SloJsonFieldsAreCheckedByName) {
  // A quoted number reads as the number, as in the other JSON documents;
  // it is no longer dropped beside a valid bound.
  auto quoted = obs::SloConfig::FromJsonText(
      R"({"slos": [{"metric": "x", "min": 1, "max": "0.5"}]})");
  ASSERT_TRUE(quoted.ok()) << quoted.status().ToString();
  EXPECT_TRUE(quoted->slos[0].has_max);
  EXPECT_DOUBLE_EQ(quoted->slos[0].max, 0.5);
  ExpectRejected(obs::SloConfig::FromJsonText(
                     R"({"slos": [{"metric": "x", "max": 1},
                                  {"metric": "y", "max": 1,
                                   "error_budget": "x"}]})")
                     .status(),
                 {"slos[1].error_budget", "x"});
  ExpectRejected(
      obs::SloConfig::FromJsonText(R"({"slos": [{"metric": "x", "maxx": 1}]})")
          .status(),
      {"slos[0].maxx"});
  ExpectRejected(obs::SloConfig::FromJsonText(
                     R"({"slos": [{"metric": "x", "max": null}]})")
                     .status(),
                 {"slos[0].max"});
  ExpectRejected(obs::SloConfig::FromJsonText(
                     R"({"slos": [{"metric": "x", "max": 1}], "slo": []})")
                     .status(),
                 {"slo"});
  ExpectRejected(
      obs::SloConfig::FromJsonText(R"({"slos": [{"max": 1}]})").status(),
      {"slos[0].metric"});
}

// Engine overrides are read by the engine that owns them, strictly: a
// malformed value fails the run before the engine starts.
TEST(ConfigRejectionTest, EngineOverrideValuesAreStrict) {
  struct Case {
    const char* engine;
    const char* key;
    const char* value;
  };
  for (const Case& c :
       {Case{"flink", "flink.async_io", "ture"},
        Case{"flink", "flink.async_capacity", "2.7"},
        Case{"flink", "flink.buffer_cycle_s", "3ms"},
        Case{"flink", "flink.stage_queue_capacity", "-1"},
        Case{"spark", "spark.max_offsets_per_trigger", "many"},
        Case{"spark", "spark.continuous", "maybe"},
        Case{"ray", "ray.py_record_s", "nan"},
        Case{"kafka-streams", "kafka_streams.idle_pickup_s", ""}}) {
    auto exp = MapProperties(std::string("engine = ") + c.engine +
                             "\nduration_s = 1\ndrain_s = 1\n" + c.key +
                             " = " + c.value + "\n");
    ASSERT_TRUE(exp.ok()) << c.key << ": " << exp.status().ToString();
    ExpectRejected(core::RunExperiment(*exp).status(), {c.key});
  }
}

// -------------------------------------------------------- scalar parser --

TEST(ParseScalarTest, IntegersAreWholeAndInRange) {
  int i = 0;
  EXPECT_TRUE(ParseScalar("k", "16", &i).ok());
  EXPECT_EQ(i, 16);
  EXPECT_TRUE(ParseScalar("k", "16.0", &i).ok());  // JSON renders 16 so
  EXPECT_EQ(i, 16);
  EXPECT_TRUE(ParseScalar("k", "1e3", &i).ok());
  EXPECT_EQ(i, 1000);
  EXPECT_FALSE(ParseScalar("k", "2.7", &i).ok());
  EXPECT_FALSE(ParseScalar("k", "2x", &i).ok());
  EXPECT_FALSE(ParseScalar("k", " 2", &i).ok());
  EXPECT_FALSE(ParseScalar("k", "", &i).ok());
  EXPECT_FALSE(ParseScalar("k", "3000000000", &i).ok());
  int64_t big = 0;
  EXPECT_TRUE(ParseScalar("k", "3000000000", &big).ok());
  EXPECT_EQ(big, 3000000000);
  EXPECT_FALSE(ParseScalar("k", "1e30", &big).ok());
  EXPECT_FALSE(ParseScalar("k", "99999999999999999999", &big).ok());
}

TEST(ParseScalarTest, Uint64RejectsNegativesAndOverflow) {
  uint64_t u = 7;
  EXPECT_TRUE(ParseScalar("seed", "18446744073709551615", &u).ok());
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(ParseScalar("seed", "-1", &u).ok());
  EXPECT_FALSE(ParseScalar("seed", "-0.0", &u).ok());
  EXPECT_FALSE(ParseScalar("seed", "18446744073709551616", &u).ok());
  EXPECT_FALSE(ParseScalar("seed", "1e20", &u).ok());
  EXPECT_EQ(u, UINT64_MAX) << "a failed parse leaves the value alone";
}

TEST(ParseScalarTest, DoublesAreFiniteAndWhole) {
  double d = 0.0;
  EXPECT_TRUE(ParseScalar("k", "0.10000000000000001", &d).ok());
  EXPECT_DOUBLE_EQ(d, 0.1);
  EXPECT_FALSE(ParseScalar("k", "1abc", &d).ok());
  EXPECT_FALSE(ParseScalar("k", "inf", &d).ok());
  EXPECT_FALSE(ParseScalar("k", "nan", &d).ok());
  EXPECT_FALSE(ParseScalar("k", "1e999", &d).ok());
  const Status s = ParseScalar("--timeline_interval", "1abc", &d);
  ExpectRejected(s, {"--timeline_interval", "1abc"});
}

TEST(ParseScalarTest, BoolsAndConfigGettersShareTheParser) {
  bool b = false;
  EXPECT_TRUE(ParseScalar("k", "yes", &b).ok());
  EXPECT_TRUE(b);
  EXPECT_FALSE(ParseScalar("k", "ture", &b).ok());
  Config cfg;
  cfg.Set("n", "2.7");
  cfg.Set("x", "1.5 ");
  ExpectRejected(cfg.GetInt("n").status(), {"n", "2.7"});
  ExpectRejected(cfg.GetDouble("x").status(), {"x"});
}

}  // namespace
}  // namespace crayfish
