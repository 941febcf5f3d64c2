#include "fault/plan.h"

#include <fstream>
#include <sstream>

#include "common/config.h"
#include "common/json.h"

namespace crayfish::fault {
namespace {

/// Sets one RetryPolicy field by name.
Status ApplyRetryField(crayfish::RetryPolicy* retry, const std::string& field,
                       const std::string& value) {
  if (field == "max_retries") {
    return ParseScalar(field, value, &retry->max_retries);
  }
  if (field == "timeout_s") return ParseScalar(field, value, &retry->timeout_s);
  if (field == "initial_backoff_s") {
    return ParseScalar(field, value, &retry->initial_backoff_s);
  }
  if (field == "backoff_multiplier") {
    return ParseScalar(field, value, &retry->backoff_multiplier);
  }
  if (field == "max_backoff_s") {
    return ParseScalar(field, value, &retry->max_backoff_s);
  }
  if (field == "jitter") return ParseScalar(field, value, &retry->jitter);
  return Status::InvalidArgument(field + ": unknown retry field");
}

/// Sets one FaultSpec field by name.
Status ApplySpecField(FaultSpec* spec, const std::string& field,
                      const std::string& value) {
  if (field == "at_s") return ParseScalar(field, value, &spec->at_s);
  if (field == "until_s") return ParseScalar(field, value, &spec->until_s);
  if (field == "broker") return ParseScalar(field, value, &spec->broker);
  if (field == "from") return ParseScalar(field, value, &spec->from);
  if (field == "to") return ParseScalar(field, value, &spec->to);
  if (field == "latency_mult") {
    return ParseScalar(field, value, &spec->latency_mult);
  }
  if (field == "bandwidth_mult") {
    return ParseScalar(field, value, &spec->bandwidth_mult);
  }
  if (field == "drop") return ParseScalar(field, value, &spec->drop);
  if (field == "factor") return ParseScalar(field, value, &spec->factor);
  if (field == "workers_delta") {
    return ParseScalar(field, value, &spec->workers_delta);
  }
  if (field == "task_index") {
    return ParseScalar(field, value, &spec->task_index);
  }
  if (field == "restart_delay_s") {
    return ParseScalar(field, value, &spec->restart_delay_s);
  }
  return Status::InvalidArgument(field + ": unknown fault field");
}

/// "kind" picks the spec and "name" labels it; every other field goes
/// through ApplySpecField, as "<name>.<field>" overrides do.
StatusOr<FaultSpec> SpecFromJson(const JsonValue& v, size_t index) {
  const std::string where = "faults[" + std::to_string(index) + "]";
  StatusOr<Config> fields = Config::FromJsonObject(v);
  if (!fields.ok()) return fields.status().Prefixed(where + ": ");
  StatusOr<std::string> kind_name = fields->GetString("kind");
  if (!kind_name.ok()) {
    return Status::InvalidArgument(where + ": needs a \"kind\"");
  }
  FaultSpec spec;
  CRAYFISH_ASSIGN_OR_RETURN(spec.kind, ParseFaultKind(*kind_name));
  spec.name = fields->Has("name") ? *fields->GetString("name") : "";
  if (spec.name.empty()) {
    spec.name = *kind_name + "-" + std::to_string(index);
  }
  for (const auto& [key, value] : fields->entries()) {
    if (key == "kind" || key == "name") continue;
    CRAYFISH_RETURN_IF_ERROR(
        ApplySpecField(&spec, key, value).Prefixed(spec.name + "."));
  }
  CRAYFISH_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBrokerCrash:
      return "broker_crash";
    case FaultKind::kLinkDegrade:
      return "link_degrade";
    case FaultKind::kServingSlowdown:
      return "serving_slowdown";
    case FaultKind::kServingDown:
      return "serving_down";
    case FaultKind::kWorkerResize:
      return "worker_resize";
    case FaultKind::kTaskRestart:
      return "task_restart";
  }
  return "unknown";
}

StatusOr<FaultKind> ParseFaultKind(const std::string& name) {
  if (name == "broker_crash") return FaultKind::kBrokerCrash;
  if (name == "link_degrade") return FaultKind::kLinkDegrade;
  if (name == "serving_slowdown") return FaultKind::kServingSlowdown;
  if (name == "serving_down") return FaultKind::kServingDown;
  if (name == "worker_resize") return FaultKind::kWorkerResize;
  if (name == "task_restart") return FaultKind::kTaskRestart;
  return Status::InvalidArgument("unknown fault kind: \"" + name + "\"");
}

Status FaultSpec::Validate() const {
  if (name.empty()) {
    return Status::InvalidArgument("fault spec needs a name");
  }
  if (at_s < 0.0) {
    return Status::InvalidArgument(name + ": at_s must be >= 0");
  }
  if (until_s >= 0.0 && until_s <= at_s) {
    return Status::InvalidArgument(name + ": until_s must be > at_s");
  }
  switch (kind) {
    case FaultKind::kBrokerCrash:
      if (broker < 0) {
        return Status::InvalidArgument(name + ": broker must be >= 0");
      }
      break;
    case FaultKind::kLinkDegrade:
      if (bandwidth_mult <= 0.0) {
        return Status::InvalidArgument(
            name + ": bandwidth_mult must stay strictly positive");
      }
      if (latency_mult < 0.0) {
        return Status::InvalidArgument(name +
                                       ": latency_mult must be >= 0");
      }
      break;
    case FaultKind::kServingSlowdown:
      if (factor <= 0.0) {
        return Status::InvalidArgument(name + ": factor must be > 0");
      }
      break;
    case FaultKind::kServingDown:
      break;
    case FaultKind::kWorkerResize:
      if (workers_delta == 0) {
        return Status::InvalidArgument(name +
                                       ": workers_delta must be nonzero");
      }
      break;
    case FaultKind::kTaskRestart:
      if (restart_delay_s < 0.0) {
        return Status::InvalidArgument(
            name + ": restart_delay_s must be >= 0");
      }
      if (task_index < 0) {
        return Status::InvalidArgument(name + ": task_index must be >= 0");
      }
      break;
  }
  return Status::Ok();
}

bool FaultSpec::outage() const {
  switch (kind) {
    case FaultKind::kBrokerCrash:
    case FaultKind::kServingDown:
    case FaultKind::kTaskRestart:
      return true;
    case FaultKind::kLinkDegrade:
      return drop;
    case FaultKind::kServingSlowdown:
    case FaultKind::kWorkerResize:
      return false;
  }
  return false;
}

Status FaultPlan::Validate() const {
  CRAYFISH_RETURN_IF_ERROR(retry.Validate());
  if (auto_commit_interval_s < 0.0) {
    return Status::InvalidArgument("auto_commit_interval_s must be >= 0");
  }
  for (size_t i = 0; i < faults.size(); ++i) {
    CRAYFISH_RETURN_IF_ERROR(faults[i].Validate());
    for (size_t j = 0; j < i; ++j) {
      if (faults[j].name == faults[i].name) {
        return Status::InvalidArgument("duplicate fault name: " +
                                       faults[i].name);
      }
    }
  }
  return Status::Ok();
}

StatusOr<FaultPlan> FaultPlan::FromJsonText(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("fault plan must be a JSON object");
  }
  FaultPlan plan;
  // The "faults" array is the one structural key; every other field
  // ("retry.<field>", "auto_commit_interval_s") goes through ApplyOverride.
  if (const JsonValue* faults = root.Find("faults")) {
    if (!faults->is_array()) {
      return Status::InvalidArgument("\"faults\" must be a JSON array");
    }
    for (size_t i = 0; i < faults->as_array().size(); ++i) {
      CRAYFISH_ASSIGN_OR_RETURN(FaultSpec spec,
                                SpecFromJson(faults->as_array()[i], i));
      plan.faults.push_back(std::move(spec));
    }
    root.as_object().erase("faults");
  }
  CRAYFISH_ASSIGN_OR_RETURN(const Config fields, Config::FromJsonObject(root));
  for (const auto& [key, value] : fields.entries()) {
    CRAYFISH_RETURN_IF_ERROR(plan.ApplyOverride(key, value));
  }
  CRAYFISH_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

StatusOr<FaultPlan> FaultPlan::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read fault plan: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return FromJsonText(text.str());
}

Status FaultPlan::ApplyOverride(const std::string& key,
                                const std::string& value) {
  if (key == "auto_commit_interval_s") {
    return ParseScalar(key, value, &auto_commit_interval_s);
  }
  const size_t dot = key.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= key.size()) {
    return Status::InvalidArgument(
        key + ": not auto_commit_interval_s, retry.<field> or "
              "<fault>.<field>");
  }
  const std::string target = key.substr(0, dot);
  const std::string field = key.substr(dot + 1);
  if (target == "retry") {
    return ApplyRetryField(&retry, field, value).Prefixed("retry.");
  }
  for (FaultSpec& spec : faults) {
    if (spec.name == target) {
      return ApplySpecField(&spec, field, value).Prefixed(target + ".");
    }
  }
  // Numeric index addressing ("0.at_s").
  uint64_t idx = 0;
  if (ParseScalar(target, target, &idx).ok() && idx < faults.size()) {
    return ApplySpecField(&faults[static_cast<size_t>(idx)], field, value)
        .Prefixed(target + ".");
  }
  return Status::NotFound(key + ": no fault named \"" + target +
                          "\" in the plan");
}

}  // namespace crayfish::fault
