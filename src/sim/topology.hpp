#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace sigvp {

/// How the scheduler/dispatcher domains of a sharded fleet are stitched
/// together by the host-side fabric.
///
/// The model is a tree of fabric switches with domain 0 — the frontend that
/// aggregates fleet completion — sitting at the root. Every other domain
/// hangs off the tree via edges with a per-edge latency; cross-domain
/// traffic (completion reports up, acknowledgements down) pays the summed
/// latency of the edges on its path.
///
/// Descriptions use a newick-style grammar (after CXLMemSim's multi-host
/// `-o "(1,(2,3))"` trees):
///
///   spec    := '(' item (',' item)* ')'
///   item    := domain-id [':' latency_us] | spec [':' latency_us]
///
/// Nested parentheses introduce an intermediate switch one hop further from
/// the root; `:latency` overrides the default edge latency of the edge
/// connecting that item to its parent switch. Domain ids 1..D-1 must each
/// appear exactly once (domain 0 is implicitly the root and never listed).
/// The empty spec means a flat star: every domain one hop from the root.
class FleetTopology {
 public:
  /// The degenerate one-domain fleet: the root alone, no edges, infinite
  /// lookahead.
  static FleetTopology single();

  /// Flat star: domains 1..D-1 each attached to the root by one edge of
  /// `edge_latency_us`.
  static FleetTopology flat(std::uint32_t domains, SimTime edge_latency_us);

  /// Parses `spec` (see grammar above; empty = flat). Throws ContractError
  /// on malformed input, unknown/duplicate/missing domain ids, or a
  /// non-positive latency.
  static FleetTopology parse(const std::string& spec, std::uint32_t domains,
                             SimTime default_edge_latency_us);

  std::uint32_t domains() const { return static_cast<std::uint32_t>(to_root_us_.size()); }

  /// Summed edge latency from `domain` to the root (0 for domain 0).
  SimTime to_root_us(std::uint32_t domain) const { return to_root_us_.at(domain); }

  /// Number of fabric edges between `domain` and the root (0 for domain 0).
  std::uint32_t hops_to_root(std::uint32_t domain) const { return hops_.at(domain); }

  /// Minimum cross-domain flight time: the conservative lookahead of the
  /// sharded executor. Any message sent by an event executing at time E
  /// arrives no earlier than E + lookahead, so every domain may safely
  /// advance to (earliest pending event anywhere) + lookahead between
  /// synchronization barriers. Strictly positive by construction; infinite
  /// for `single()`.
  SimTime lookahead_us() const { return lookahead_us_; }

 private:
  FleetTopology() = default;
  void finalize();

  std::vector<SimTime> to_root_us_;
  std::vector<std::uint32_t> hops_;
  SimTime lookahead_us_ = 0.0;
};

}  // namespace sigvp
