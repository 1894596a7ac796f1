#include "protocols/registry.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace wp = wakeup::proto;
namespace wm = wakeup::mac;
namespace wu = wakeup::util;
using wakeup::test::run;

namespace {

wp::ProtocolSpec spec_for(const std::string& name) {
  wp::ProtocolSpec spec;
  spec.name = name;
  spec.n = 64;
  spec.k = 8;
  spec.s = 0;
  spec.seed = 5;
  return spec;
}

}  // namespace

TEST(Registry, AllNamesConstruct) {
  for (const auto& name : wp::protocol_names()) {
    const auto protocol = wp::make_protocol_by_name(spec_for(name));
    ASSERT_NE(protocol, nullptr) << name;
    EXPECT_FALSE(protocol->name().empty()) << name;
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(wp::make_protocol_by_name(spec_for("not_a_protocol")), std::invalid_argument);
}

TEST(Registry, NamesRoundTrip) {
  // Constructed protocol reports the registry name (interleaved composites
  // use their label).
  for (const auto& name : wp::protocol_names()) {
    const auto protocol = wp::make_protocol_by_name(spec_for(name));
    EXPECT_EQ(protocol->name(), name);
  }
}

TEST(Registry, EveryDeterministicNoCdProtocolSolvesABasicInstance) {
  wu::Rng rng(7);
  const auto pattern = wm::patterns::simultaneous(64, 4, 0, rng);
  for (const auto& name : wp::protocol_names()) {
    const auto protocol = wp::make_protocol_by_name(spec_for(name));
    const auto fb = protocol->requirements().needs_collision_detection
                        ? wm::FeedbackModel::kCollisionDetection
                        : wm::FeedbackModel::kNone;
    const auto result = run(*protocol, pattern, 0, fb);
    EXPECT_TRUE(result.success) << name;
  }
}

TEST(Registry, CapabilitiesMatchTheConstructedProtocols) {
  // The capability table is probed from real instances, so it can never
  // drift from the implementations `wakeup_cli list` and the sweep grid
  // validation rely on.
  for (const auto& name : wp::protocol_names()) {
    const auto caps = wp::protocol_capabilities(name);
    const auto protocol = wp::make_protocol_by_name(spec_for(name));
    EXPECT_EQ(caps.oblivious, protocol->oblivious_schedule() != nullptr) << name;
    EXPECT_EQ(caps.randomized, protocol->requirements().randomized) << name;
    EXPECT_EQ(caps.needs_k, protocol->requirements().needs_k) << name;
    EXPECT_EQ(caps.needs_start_time, protocol->requirements().needs_start_time) << name;
    EXPECT_EQ(caps.dynamic, !protocol->requirements().needs_start_time &&
                                !protocol->requirements().needs_collision_detection)
        << name;
    if (caps.cheap_words) {
      EXPECT_TRUE(caps.oblivious) << name;
    }
  }
  EXPECT_TRUE(wp::protocol_capabilities("round_robin").oblivious);
  EXPECT_TRUE(wp::protocol_capabilities("round_robin").cheap_words);
  EXPECT_FALSE(wp::protocol_capabilities("slotted_aloha").oblivious);
  EXPECT_TRUE(wp::protocol_capabilities("tree_splitting").needs_collision_detection);
  // Dynamic traffic pins: per-packet re-contenders and start-time-free
  // oblivious protocols qualify; Scenario A and CD protocols do not.
  for (const char* name :
       {"round_robin", "wakeup_with_k", "wakeup_matrix", "binary_backoff", "slotted_aloha",
        "adaptive_cw"}) {
    EXPECT_TRUE(wp::protocol_capabilities(name).dynamic) << name;
  }
  for (const char* name : {"wakeup_with_s", "select_among_the_first", "tree_splitting"}) {
    EXPECT_FALSE(wp::protocol_capabilities(name).dynamic) << name;
  }
  EXPECT_THROW((void)wp::protocol_capabilities("nope"), std::invalid_argument);
  EXPECT_TRUE(wp::is_protocol_name("wakeup_matrix"));
  EXPECT_FALSE(wp::is_protocol_name("wakeup_matrix2"));
}

TEST(Registry, RequirementFlagsMatchScenarios) {
  EXPECT_TRUE(wp::make_protocol_by_name(spec_for("wakeup_with_s"))->requirements().needs_start_time);
  EXPECT_TRUE(wp::make_protocol_by_name(spec_for("wakeup_with_k"))->requirements().needs_k);
  const auto c = wp::make_protocol_by_name(spec_for("wakeup_matrix"));
  EXPECT_FALSE(c->requirements().needs_start_time);
  EXPECT_FALSE(c->requirements().needs_k);
  EXPECT_TRUE(wp::make_protocol_by_name(spec_for("rpd_n"))->requirements().randomized);
  EXPECT_TRUE(
      wp::make_protocol_by_name(spec_for("tree_splitting"))->requirements().needs_collision_detection);
}
