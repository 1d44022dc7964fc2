#include "sim/topology.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>

#include "util/check.hpp"

namespace sigvp {

FleetTopology FleetTopology::single() {
  FleetTopology t;
  t.to_root_us_.assign(1, 0.0);
  t.hops_.assign(1, 0);
  t.lookahead_us_ = std::numeric_limits<SimTime>::infinity();
  return t;
}

FleetTopology FleetTopology::flat(std::uint32_t domains, SimTime edge_latency_us) {
  SIGVP_REQUIRE(domains >= 2, "a fleet topology needs at least two domains");
  SIGVP_REQUIRE(edge_latency_us > 0.0, "fabric edge latency must be positive");
  FleetTopology t;
  t.to_root_us_.assign(domains, edge_latency_us);
  t.hops_.assign(domains, 1);
  t.to_root_us_[0] = 0.0;
  t.hops_[0] = 0;
  t.finalize();
  return t;
}

namespace {

/// Recursive-descent parser for the newick-style spec. Each item/group call
/// returns the domain ids of its subtree; edge latencies accumulate
/// bottom-up, so a switch's uplink latency (written after its ')') is added
/// to every domain beneath it exactly once.
struct Parser {
  const std::string& spec;
  std::size_t pos = 0;
  SimTime default_edge_us;
  std::vector<SimTime>& to_root;
  std::vector<std::uint32_t>& hops;
  std::vector<char>& seen;

  char peek() const { return pos < spec.size() ? spec[pos] : '\0'; }

  void expect(char c) {
    SIGVP_REQUIRE(peek() == c, "fleet topology spec: expected '" + std::string(1, c) +
                                   "' at offset " + std::to_string(pos) + " in \"" + spec +
                                   "\"");
    ++pos;
  }

  /// Optional ":latency" suffix; returns the default when absent.
  SimTime edge_latency() {
    if (peek() != ':') return default_edge_us;
    ++pos;
    const char* start = spec.c_str() + pos;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    SIGVP_REQUIRE(end != start, "fleet topology spec: malformed latency at offset " +
                                    std::to_string(pos) + " in \"" + spec + "\"");
    SIGVP_REQUIRE(v > 0.0, "fleet topology spec: edge latency must be positive in \"" +
                               spec + "\"");
    pos += static_cast<std::size_t>(end - start);
    return v;
  }

  /// domain-id [':' latency] | group — returns the subtree's domain ids,
  /// each with the latency/hops of its path up to (and including) this
  /// item's uplink edge.
  std::vector<std::uint32_t> item() {
    if (peek() == '(') return group();
    SIGVP_REQUIRE(std::isdigit(static_cast<unsigned char>(peek())),
                  "fleet topology spec: expected a domain id or '(' at offset " +
                      std::to_string(pos) + " in \"" + spec + "\"");
    std::uint64_t id = 0;
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      id = id * 10 + static_cast<std::uint64_t>(peek() - '0');
      ++pos;
    }
    const SimTime edge = edge_latency();
    SIGVP_REQUIRE(id >= 1 && id < to_root.size(),
                  "fleet topology spec: domain id " + std::to_string(id) +
                      " out of range (domain 0 is the implicit root) in \"" + spec + "\"");
    SIGVP_REQUIRE(!seen[id], "fleet topology spec: duplicate domain id " +
                                 std::to_string(id) + " in \"" + spec + "\"");
    seen[id] = 1;
    to_root[id] = edge;
    hops[id] = 1;
    return {static_cast<std::uint32_t>(id)};
  }

  /// '(' item (',' item)* ')' [':' latency] — a fabric switch; the latency
  /// after ')' is the switch's uplink edge toward the root.
  std::vector<std::uint32_t> group() {
    expect('(');
    std::vector<std::uint32_t> ids = item();
    while (peek() == ',') {
      ++pos;
      std::vector<std::uint32_t> more = item();
      ids.insert(ids.end(), more.begin(), more.end());
    }
    expect(')');
    const SimTime uplink = edge_latency();
    for (std::uint32_t id : ids) {
      to_root[id] += uplink;
      hops[id] += 1;
    }
    return ids;
  }
};

}  // namespace

FleetTopology FleetTopology::parse(const std::string& spec, std::uint32_t domains,
                                   SimTime default_edge_latency_us) {
  if (spec.empty() || spec == "flat") return flat(domains, default_edge_latency_us);
  SIGVP_REQUIRE(domains >= 2, "a fleet topology needs at least two domains");
  SIGVP_REQUIRE(default_edge_latency_us > 0.0, "fabric edge latency must be positive");

  FleetTopology t;
  t.to_root_us_.assign(domains, 0.0);
  t.hops_.assign(domains, 0);
  std::vector<char> seen(domains, 0);

  Parser p{spec, 0, default_edge_latency_us, t.to_root_us_, t.hops_, seen};
  // The outermost parens are the root switch itself (where domain 0 sits),
  // so its direct members get exactly their own edge latency — no uplink.
  p.expect('(');
  p.item();
  while (p.peek() == ',') {
    ++p.pos;
    p.item();
  }
  p.expect(')');
  SIGVP_REQUIRE(p.pos == spec.size(),
                "fleet topology spec: trailing characters after ')' in \"" + spec + "\"");

  for (std::uint32_t d = 1; d < domains; ++d) {
    SIGVP_REQUIRE(seen[d] != 0, "fleet topology spec: domain id " + std::to_string(d) +
                                    " missing from \"" + spec + "\"");
  }
  t.finalize();
  return t;
}

void FleetTopology::finalize() {
  lookahead_us_ = 0.0;
  for (std::uint32_t d = 1; d < domains(); ++d) {
    SIGVP_REQUIRE(to_root_us_[d] > 0.0, "fabric path latency must be positive");
    if (lookahead_us_ == 0.0 || to_root_us_[d] < lookahead_us_) {
      lookahead_us_ = to_root_us_[d];
    }
  }
  SIGVP_REQUIRE(lookahead_us_ > 0.0, "fleet topology lookahead must be positive");
}

}  // namespace sigvp
