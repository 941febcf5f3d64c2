#include "scale/workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/config.h"

namespace crayfish::scale {
namespace {

/// SplitMix64: the jitter factor is a pure hash of (seed, window index),
/// not an RNG stream — shapes consume no simulation randomness.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

StatusOr<ProfilePoint> PointFromJson(const JsonValue& v) {
  ProfilePoint p;
  if (v.is_array() && v.as_array().size() == 2 &&
      v.as_array()[0].is_number() && v.as_array()[1].is_number()) {
    p.t_s = v.as_array()[0].as_number();
    p.rate = v.as_array()[1].as_number();
    return p;
  }
  if (v.is_object()) {
    for (const auto& [key, field] : v.as_object()) {
      double* slot = key == "t_s" ? &p.t_s : key == "rate" ? &p.rate : nullptr;
      if (slot == nullptr || !field.is_number()) {
        return Status::InvalidArgument("profile point field \"" + key +
                                       "\" must be t_s or rate, a number");
      }
      *slot = field.as_number();
    }
    return p;
  }
  return Status::InvalidArgument(
      "profile point must be [t, rate] or {\"t_s\":..,\"rate\":..}");
}

Status PointsFromJsonArray(const JsonValue& arr,
                           std::vector<ProfilePoint>* out) {
  if (!arr.is_array()) {
    return Status::InvalidArgument("\"points\" must be a JSON array");
  }
  out->clear();
  for (const JsonValue& v : arr.as_array()) {
    CRAYFISH_ASSIGN_OR_RETURN(ProfilePoint p, PointFromJson(v));
    out->push_back(p);
  }
  return Status::Ok();
}

}  // namespace

const char* ShapeKindName(ShapeKind kind) {
  switch (kind) {
    case ShapeKind::kConstant:
      return "constant";
    case ShapeKind::kDiurnal:
      return "diurnal";
    case ShapeKind::kFlashCrowd:
      return "flash_crowd";
    case ShapeKind::kRamp:
      return "ramp";
    case ShapeKind::kReplay:
      return "replay";
  }
  return "unknown";
}

StatusOr<ShapeKind> ParseShapeKind(const std::string& name) {
  if (name == "constant") return ShapeKind::kConstant;
  if (name == "diurnal") return ShapeKind::kDiurnal;
  if (name == "flash_crowd" || name == "flash-crowd") {
    return ShapeKind::kFlashCrowd;
  }
  if (name == "ramp") return ShapeKind::kRamp;
  if (name == "replay") return ShapeKind::kReplay;
  return Status::InvalidArgument("unknown workload shape: \"" + name + "\"");
}

double WorkloadShape::RateAt(double t) const {
  double rate = base_rate;
  switch (kind) {
    case ShapeKind::kConstant:
      break;
    case ShapeKind::kDiurnal: {
      const double angle = 2.0 * M_PI * (t + phase_s) / period_s;
      rate = base_rate * (1.0 + amplitude * std::sin(angle));
      break;
    }
    case ShapeKind::kFlashCrowd: {
      const double peak = base_rate * spike_mult;
      if (t < spike_at_s) {
        rate = base_rate;
      } else if (t < spike_at_s + ramp_up_s) {
        const double f = (t - spike_at_s) / ramp_up_s;
        rate = base_rate + f * (peak - base_rate);
      } else if (t < spike_at_s + ramp_up_s + hold_s) {
        rate = peak;
      } else if (t < spike_at_s + ramp_up_s + hold_s + decay_s) {
        const double f = (t - spike_at_s - ramp_up_s - hold_s) / decay_s;
        rate = peak - f * (peak - base_rate);
      } else {
        rate = base_rate;
      }
      break;
    }
    case ShapeKind::kRamp: {
      if (t <= ramp_start_s) {
        rate = base_rate;
      } else if (t >= ramp_start_s + ramp_duration_s) {
        rate = end_rate;
      } else {
        const double f = (t - ramp_start_s) / ramp_duration_s;
        rate = base_rate + f * (end_rate - base_rate);
      }
      break;
    }
    case ShapeKind::kReplay: {
      if (points.empty()) break;
      if (t <= points.front().t_s) {
        rate = points.front().rate;
      } else if (t >= points.back().t_s) {
        rate = points.back().rate;
      } else {
        for (size_t i = 1; i < points.size(); ++i) {
          if (t <= points[i].t_s) {
            const ProfilePoint& a = points[i - 1];
            const ProfilePoint& b = points[i];
            const double span = b.t_s - a.t_s;
            const double f = span > 0.0 ? (t - a.t_s) / span : 1.0;
            rate = a.rate + f * (b.rate - a.rate);
            break;
          }
        }
      }
      break;
    }
  }
  if (jitter > 0.0 && jitter_window_s > 0.0) {
    const uint64_t window =
        static_cast<uint64_t>(std::floor(t / jitter_window_s));
    const uint64_t h = Mix64(seed ^ Mix64(window));
    // Uniform in [0, 1) from the top 53 bits, mapped to [1-j, 1+j].
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    rate *= 1.0 - jitter + 2.0 * jitter * u;
  }
  return std::max(rate, floor_rate);
}

double WorkloadShape::IntegrateRate(double t0, double t1, int steps) const {
  if (t1 <= t0 || steps <= 0) return 0.0;
  const double h = (t1 - t0) / static_cast<double>(steps);
  double sum = 0.5 * (RateAt(t0) + RateAt(t1));
  for (int i = 1; i < steps; ++i) {
    sum += RateAt(t0 + h * static_cast<double>(i));
  }
  return sum * h;
}

Status WorkloadShape::Validate() const {
  if (base_rate <= 0.0) {
    return Status::InvalidArgument("workload base_rate must be > 0");
  }
  if (floor_rate <= 0.0) {
    return Status::InvalidArgument("workload floor_rate must be > 0");
  }
  if (jitter < 0.0 || jitter >= 1.0) {
    return Status::InvalidArgument("workload jitter must be in [0, 1)");
  }
  if (jitter > 0.0 && jitter_window_s <= 0.0) {
    return Status::InvalidArgument("workload jitter_window_s must be > 0");
  }
  switch (kind) {
    case ShapeKind::kConstant:
      break;
    case ShapeKind::kDiurnal:
      if (amplitude < 0.0 || amplitude > 1.0) {
        return Status::InvalidArgument("diurnal amplitude must be in [0, 1]");
      }
      if (period_s <= 0.0) {
        return Status::InvalidArgument("diurnal period_s must be > 0");
      }
      break;
    case ShapeKind::kFlashCrowd:
      if (spike_mult < 1.0) {
        // A sub-1 "spike" would be a dip; express dips as replay profiles.
        return Status::InvalidArgument("flash_crowd spike_mult must be >= 1");
      }
      if (spike_at_s < 0.0 || ramp_up_s <= 0.0 || hold_s < 0.0 ||
          decay_s <= 0.0) {
        return Status::InvalidArgument(
            "flash_crowd needs spike_at_s >= 0, hold_s >= 0, and strictly "
            "positive ramp_up_s / decay_s");
      }
      break;
    case ShapeKind::kRamp:
      if (end_rate <= 0.0) {
        return Status::InvalidArgument("ramp end_rate must be > 0");
      }
      if (ramp_start_s < 0.0 || ramp_duration_s <= 0.0) {
        return Status::InvalidArgument(
            "ramp needs ramp_start_s >= 0 and ramp_duration_s > 0");
      }
      break;
    case ShapeKind::kReplay: {
      if (points.empty()) {
        return Status::InvalidArgument("replay shape needs profile points");
      }
      for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].rate < 0.0) {
          return Status::InvalidArgument("replay rates must be >= 0");
        }
        if (i > 0 && points[i].t_s < points[i - 1].t_s) {
          return Status::InvalidArgument(
              "replay points must be sorted by t_s");
        }
      }
      break;
    }
  }
  return Status::Ok();
}

Status WorkloadSpec::Validate() const {
  CRAYFISH_RETURN_IF_ERROR(shape.Validate());
  if (tenants < 0) {
    return Status::InvalidArgument("workload tenants must be >= 0");
  }
  if (tenants > 0 && tenant_partitions <= 0) {
    return Status::InvalidArgument("workload tenant_partitions must be > 0");
  }
  if (tenants > 0 && tenant_rate_factor <= 0.0) {
    return Status::InvalidArgument("workload tenant_rate_factor must be > 0");
  }
  if (fleet_hosts < 0) {
    return Status::InvalidArgument("workload fleet_hosts must be >= 0");
  }
  return Status::Ok();
}

StatusOr<WorkloadSpec> WorkloadSpec::FromJson(const JsonValue& v) {
  CRAYFISH_ASSIGN_OR_RETURN(const Config fields, Config::FromJsonObject(v));
  WorkloadSpec spec;
  spec.enabled = true;
  // Shape fields nest under "shape" or sit at the top level (small
  // hand-written specs skip the nesting); ApplyOverride takes both.
  for (const auto& [key, value] : fields.entries()) {
    const bool nested = key.rfind("shape.", 0) == 0;
    CRAYFISH_RETURN_IF_ERROR(
        spec.ApplyOverride(nested ? key.substr(6) : key, value));
  }
  CRAYFISH_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

StatusOr<WorkloadSpec> WorkloadSpec::FromJsonText(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  return FromJson(root);
}

StatusOr<WorkloadSpec> WorkloadSpec::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read workload spec: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return FromJsonText(text.str());
}

Status WorkloadSpec::ApplyOverride(const std::string& key,
                                   const std::string& value) {
  enabled = true;
  if (key == "kind") {
    StatusOr<ShapeKind> kind = ParseShapeKind(value);
    if (!kind.ok()) return kind.status().Prefixed("kind: ");
    shape.kind = *kind;
    return Status::Ok();
  }
  if (key == "points") {
    StatusOr<JsonValue> arr = JsonValue::Parse(value);
    if (arr.ok()) return PointsFromJsonArray(*arr, &shape.points);
    return arr.status().Prefixed("points: ");
  }
  if (key == "base_rate") return ParseScalar(key, value, &shape.base_rate);
  if (key == "floor_rate") return ParseScalar(key, value, &shape.floor_rate);
  if (key == "jitter") return ParseScalar(key, value, &shape.jitter);
  if (key == "jitter_window_s") {
    return ParseScalar(key, value, &shape.jitter_window_s);
  }
  if (key == "seed") return ParseScalar(key, value, &shape.seed);
  if (key == "amplitude") return ParseScalar(key, value, &shape.amplitude);
  if (key == "period_s") return ParseScalar(key, value, &shape.period_s);
  if (key == "phase_s") return ParseScalar(key, value, &shape.phase_s);
  if (key == "spike_at_s") return ParseScalar(key, value, &shape.spike_at_s);
  if (key == "spike_mult") return ParseScalar(key, value, &shape.spike_mult);
  if (key == "ramp_up_s") return ParseScalar(key, value, &shape.ramp_up_s);
  if (key == "hold_s") return ParseScalar(key, value, &shape.hold_s);
  if (key == "decay_s") return ParseScalar(key, value, &shape.decay_s);
  if (key == "ramp_start_s") {
    return ParseScalar(key, value, &shape.ramp_start_s);
  }
  if (key == "ramp_duration_s") {
    return ParseScalar(key, value, &shape.ramp_duration_s);
  }
  if (key == "end_rate") return ParseScalar(key, value, &shape.end_rate);
  if (key == "tenants") return ParseScalar(key, value, &tenants);
  if (key == "tenant_partitions") {
    return ParseScalar(key, value, &tenant_partitions);
  }
  if (key == "tenant_rate_factor") {
    return ParseScalar(key, value, &tenant_rate_factor);
  }
  if (key == "tenant_topic_prefix") {
    return ParseScalar(key, value, &tenant_topic_prefix);
  }
  if (key == "tenant_host_prefix") {
    return ParseScalar(key, value, &tenant_host_prefix);
  }
  if (key == "fleet_hosts") return ParseScalar(key, value, &fleet_hosts);
  if (key == "fleet_host_prefix") {
    return ParseScalar(key, value, &fleet_host_prefix);
  }
  return Status::InvalidArgument(key + ": unknown workload key");
}

}  // namespace crayfish::scale
