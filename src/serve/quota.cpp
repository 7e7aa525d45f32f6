#include "serve/quota.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/check.hpp"

namespace hmr::serve {

QuotaLedger::QuotaLedger(const TenantRegistry& reg,
                         const std::vector<ooc::TierDesc>& tiers)
    : n_tenants_(reg.size()) {
  capacity_.reserve(tiers.size());
  for (const auto& td : tiers) capacity_.push_back(td.capacity);
  const std::size_t levels = capacity_.size();
  used_.assign((n_tenants_ + 1) * levels, 0);
  reserved_.assign(n_tenants_ * levels, 0);
  // Reservation fractions must leave the level coherent: sum <= 1.
  for (std::size_t l = 0; l < levels; ++l) {
    double sum = 0;
    for (const auto& d : reg.all()) {
      sum += d.reserve_for(l);
      reserved_[d.id * levels + l] = static_cast<std::uint64_t>(
          d.reserve_for(l) * static_cast<double>(capacity_[l]));
    }
    HMR_CHECK_MSG(sum <= 1.0 + 1e-9,
                  "tenant tier_reserve fractions exceed 1 on a level");
  }
}

bool QuotaLedger::transfer(TenantId prev_owner, TenantId owner,
                           std::int32_t from_level, std::int32_t to_level,
                           std::uint64_t bytes) {
  release(prev_owner, from_level, bytes);
  charge(owner, to_level, bytes);
  return over_reserve(owner, to_level);
}

void QuotaLedger::move(TenantId owner, std::int32_t from_level,
                       std::int32_t to_level, std::uint64_t bytes) {
  release(owner, from_level, bytes);
  charge(owner, to_level, bytes);
}

void QuotaLedger::charge(TenantId owner, std::int32_t level,
                         std::uint64_t bytes) {
  used_[slot(owner) * capacity_.size() +
        static_cast<std::size_t>(level)] += bytes;
}

void QuotaLedger::release(TenantId owner, std::int32_t level,
                          std::uint64_t bytes) {
  auto& u = used_[slot(owner) * capacity_.size() +
                  static_cast<std::size_t>(level)];
  HMR_CHECK_MSG(u >= bytes, "quota release exceeds tenant balance");
  u -= bytes;
}

std::uint64_t QuotaLedger::used(TenantId t, std::int32_t level) const {
  return used_[slot(t) * capacity_.size() +
               static_cast<std::size_t>(level)];
}

std::uint64_t QuotaLedger::reserved(TenantId t,
                                    std::int32_t level) const {
  if (t == kUnowned) return 0;
  return reserved_[static_cast<std::size_t>(t) * capacity_.size() +
                   static_cast<std::size_t>(level)];
}

std::uint64_t QuotaLedger::level_total(std::int32_t level) const {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s <= n_tenants_; ++s) {
    sum += used_[s * capacity_.size() + static_cast<std::size_t>(level)];
  }
  return sum;
}

std::vector<std::string> QuotaLedger::audit(const ooc::Engine& inner,
                                            bool at_quiescence) const {
  std::vector<std::string> out;
  char buf[192];
  for (std::int32_t l = 0; l < num_levels(); ++l) {
    const std::uint64_t cap = capacity_[static_cast<std::size_t>(l)];
    const std::uint64_t total = level_total(l);
    if (cap != 0 && total > cap) {
      std::snprintf(buf, sizeof(buf),
                    "ledger level %d holds %" PRIu64
                    " B over its %" PRIu64 " B capacity",
                    l, total, cap);
      out.emplace_back(buf);
    }
    // In-flight migrations are charged here at command time but land
    // in the engine's books at completion; the sums only meet at rest.
    if (at_quiescence && total != inner.tier_used(l)) {
      std::snprintf(buf, sizeof(buf),
                    "ledger level %d: %" PRIu64
                    " B charged vs engine tier_used %" PRIu64 " B",
                    l, total, inner.tier_used(l));
      out.emplace_back(buf);
    }
  }
  return out;
}

} // namespace hmr::serve
