#include "sim/network.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace crayfish::sim {

double PropagationSeconds(const LinkSpec& spec, const LinkDegradation& deg) {
  return spec.latency_s * deg.latency_mult;
}

double TransmitSeconds(const LinkSpec& spec, const LinkDegradation& deg,
                       uint64_t bytes) {
  return static_cast<double>(bytes) /
         (spec.bandwidth_bytes_per_s * deg.bandwidth_mult);
}

Link::Link(Simulation* sim, LinkSpec spec) : sim_(sim), spec_(spec) {
  CRAYFISH_CHECK_GE(spec.latency_s, 0.0);
  CRAYFISH_CHECK_GT(spec.bandwidth_bytes_per_s, 0.0);
}

void Link::SetDegradation(LinkDegradation deg) {
  CRAYFISH_CHECK_GE(deg.latency_mult, 0.0);
  // An injected multiplier must keep effective bandwidth strictly positive;
  // a zero/negative value would make transfer times infinite or run time
  // backwards instead of modelling an outage (use `drop` for that).
  CRAYFISH_CHECK_GT(deg.bandwidth_mult, 0.0);
  degradation_ = deg;
}

double Link::IdleTransferTime(uint64_t bytes) const {
  return PropagationSeconds(spec_, degradation_) +
         TransmitSeconds(spec_, degradation_, bytes);
}

void Link::Transfer(uint64_t bytes, InlineAction on_delivered) {
  if (degradation_.drop) {
    // Partitioned: the transfer vanishes. Senders find out via timeouts.
    ++dropped_transfers_;
    return;
  }
  const SimTime now = sim_->Now();
  const double tx_time = TransmitSeconds(spec_, degradation_, bytes);
  const SimTime tx_start = std::max(now, tx_free_at_);
  tx_free_at_ = tx_start + tx_time;
  bytes_sent_ += bytes;
  ++transfers_;
  sim_->ScheduleAt(tx_free_at_ + PropagationSeconds(spec_, degradation_),
                   std::move(on_delivered));
}

Network::Network(Simulation* sim) : sim_(sim) {}

crayfish::Status Network::AddHost(Host host) {
  if (hosts_.count(host.name) > 0) {
    return crayfish::Status::AlreadyExists("host: " + host.name);
  }
  sim_->RegisterHost(host.name);
  hosts_[host.name] = std::move(host);
  return crayfish::Status::Ok();
}

bool Network::HasHost(const std::string& name) const {
  return hosts_.count(name) > 0;
}

crayfish::StatusOr<Host> Network::GetHost(const std::string& name) const {
  auto it = hosts_.find(name);
  if (it == hosts_.end()) return crayfish::Status::NotFound("host: " + name);
  return it->second;
}

void Network::SetLinkSpec(const std::string& from, const std::string& to,
                          LinkSpec spec) {
  spec_overrides_[std::make_pair(from, to)] = spec;
  auto it = links_by_src_.find(from);
  if (it != links_by_src_.end()) it->second.out.erase(to);
}

Link* Network::GetOrCreateLink(const std::string& from,
                               const std::string& to) {
  HostLinks& bucket = links_by_src_[from];
  auto it = bucket.out.find(to);
  if (it != bucket.out.end()) return it->second.get();
  // A Link's initial state is a pure function of (spec, degradation
  // rules), never of creation time, so materializing it at first use
  // instead of at freeze keeps every export byte-identical.
  LinkSpec spec = default_spec_;
  auto ov = spec_overrides_.find(std::make_pair(from, to));
  if (ov != spec_overrides_.end()) spec = ov->second;
  auto link = std::make_unique<Link>(sim_, spec);
  Link* raw = link.get();
  raw->SetDegradation(DegradationFor(from, to));
  bucket.out[to] = std::move(link);
  return raw;
}

LinkDegradation Network::DegradationFor(const std::string& from,
                                        const std::string& to) const {
  // Most specific match wins; "" is the wildcard.
  const std::pair<std::string, std::string> candidates[] = {
      {from, to}, {from, ""}, {"", to}, {"", ""}};
  for (const auto& key : candidates) {
    auto it = degradations_.find(key);
    if (it != degradations_.end()) return it->second;
  }
  return LinkDegradation{};
}

void Network::SetDegradation(const std::string& from, const std::string& to,
                             LinkDegradation deg) {
  degradations_[std::make_pair(from, to)] = deg;
  // Re-resolve every live link so rule precedence stays consistent whether a
  // link was created before or after the rule was installed.
  for (auto& [src, bucket] : links_by_src_) {
    for (auto& [dst, link] : bucket.out) {
      link->SetDegradation(DegradationFor(src, dst));
    }
  }
}

double Network::MinLinkLatency() const {
  double floor = default_spec_.latency_s;
  for (const auto& [key, spec] : spec_overrides_) {
    floor = std::min(floor, spec.latency_s);
  }
  return floor;
}

void Network::Send(const std::string& from, const std::string& to,
                   uint64_t bytes, InlineAction on_delivered) {
  CRAYFISH_CHECK(HasHost(from)) << "unknown host " << from;
  CRAYFISH_CHECK(HasHost(to)) << "unknown host " << to;
  if (from == to) {
    // Loopback: delivered within the same event-loop instant.
    sim_->Schedule(0.0, std::move(on_delivered));
    return;
  }
  GetOrCreateLink(from, to)->Transfer(bytes, std::move(on_delivered));
}

double Network::IdleTransferTime(const std::string& from,
                                 const std::string& to,
                                 uint64_t bytes) const {
  if (from == to) return 0.0;
  LinkSpec spec = default_spec_;
  auto ov = spec_overrides_.find(std::make_pair(from, to));
  if (ov != spec_overrides_.end()) spec = ov->second;
  const LinkDegradation deg = DegradationFor(from, to);
  return PropagationSeconds(spec, deg) + TransmitSeconds(spec, deg, bytes);
}

uint64_t Network::total_bytes_sent() const {
  uint64_t total = 0;
  for (const auto& [src, bucket] : links_by_src_) {
    for (const auto& [dst, link] : bucket.out) total += link->bytes_sent();
  }
  return total;
}

size_t Network::live_link_count() const {
  size_t total = 0;
  for (const auto& [src, bucket] : links_by_src_) total += bucket.out.size();
  return total;
}

}  // namespace crayfish::sim
