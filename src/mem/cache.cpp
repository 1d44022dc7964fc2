#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

namespace sigvp {

CacheModel::CacheModel(const CacheConfig& config) : config_(config) {
  SIGVP_REQUIRE(config.line_bytes > 0 && (config.line_bytes & (config.line_bytes - 1)) == 0,
                "cache line size must be a power of two");
  SIGVP_REQUIRE(config.associativity > 0, "associativity must be positive");
  SIGVP_REQUIRE(config.num_sets() > 0, "cache must have at least one set");
  ways_ = config.associativity;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(config.line_bytes));
  num_sets_ = config.num_sets();
  pow2_sets_ = std::has_single_bit(num_sets_);
  tags_.reset(new std::uint64_t[num_sets_ * ways_]);
  fill_.assign(num_sets_, 0);
}

void CacheModel::flush() { std::fill(fill_.begin(), fill_.end(), 0u); }

}  // namespace sigvp
