// Tests for the SPP-Net configuration codec (Table-1 notation).
#include "detect/sppnet_config.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "detect/sppnet.hpp"

namespace dcn::detect {
namespace {

TEST(Notation, ParsesOriginalSppNet) {
  const SppNetConfig config = parse_notation(
      "C_{64,3,1}-P_{2,2}-C_{128,3,1}-P_{2,2}-C_{256,3,1}-P_{2,2}"
      "-SPP_{4,2,1}-F_{1024}");
  ASSERT_EQ(config.trunk.size(), 6u);
  EXPECT_EQ(config.trunk[0].kind, TrunkStage::Kind::kConv);
  EXPECT_EQ(config.trunk[0].conv.filters, 64);
  EXPECT_EQ(config.trunk[0].conv.kernel, 3);
  EXPECT_EQ(config.trunk[1].kind, TrunkStage::Kind::kPool);
  EXPECT_EQ(config.trunk[1].pool.stride, 2);
  EXPECT_EQ(config.spp_levels, (std::vector<std::int64_t>{4, 2, 1}));
  EXPECT_EQ(config.fc_sizes, (std::vector<std::int64_t>{1024}));
  EXPECT_EQ(config.in_channels, 4);
}

TEST(Notation, RoundTripsAllTable1Models) {
  for (const SppNetConfig& model : table1_models()) {
    const std::string notation = model.to_notation();
    const SppNetConfig reparsed = parse_notation(notation);
    EXPECT_EQ(reparsed.to_notation(), notation) << model.name;
    EXPECT_EQ(reparsed.spp_levels, model.spp_levels);
    EXPECT_EQ(reparsed.fc_sizes, model.fc_sizes);
    EXPECT_EQ(reparsed.trunk.size(), model.trunk.size());
  }
}

TEST(Notation, Table1PresetsMatchPaper) {
  const SppNetConfig original = original_sppnet();
  EXPECT_EQ(original.trunk[0].conv.kernel, 3);
  EXPECT_EQ(original.spp_levels, (std::vector<std::int64_t>{4, 2, 1}));
  EXPECT_EQ(original.fc_sizes, (std::vector<std::int64_t>{1024}));

  const SppNetConfig c1 = sppnet_candidate1();
  EXPECT_EQ(c1.trunk[0].conv.kernel, 5);  // C_{64,5,1}
  EXPECT_EQ(c1.spp_levels, (std::vector<std::int64_t>{4, 2, 1}));
  EXPECT_EQ(c1.fc_sizes, (std::vector<std::int64_t>{1024}));

  const SppNetConfig c2 = sppnet_candidate2();
  EXPECT_EQ(c2.trunk[0].conv.kernel, 3);
  EXPECT_EQ(c2.spp_levels, (std::vector<std::int64_t>{5, 2, 1}));
  EXPECT_EQ(c2.fc_sizes, (std::vector<std::int64_t>{4096}));

  const SppNetConfig c3 = sppnet_candidate3();
  EXPECT_EQ(c3.spp_levels, (std::vector<std::int64_t>{5, 2, 1}));
  EXPECT_EQ(c3.fc_sizes, (std::vector<std::int64_t>{2048}));
}

TEST(Notation, MalformedInputsThrow) {
  // Every malformed-input class throws the ConfigError parse_notation
  // documents, not a bare dcn::Error.
  const char* malformed[] = {
      "C_(64,3,1)-SPP_{2,1}",            // bad braces
      "C_{64,3,1-SPP_{2,1}",             // unclosed brace
      "",                                // empty notation
      "C_{}-SPP_{2,1}",                  // empty token
      "C_{64,,1}-SPP_{2,1}",             // empty integer
      "C_{64,a,1}-SPP_{2,1}",            // not an integer
      "X_{1}-SPP_{2,1}",                 // unknown token
      "SPP_{2,1}-C_{64,3,1}",            // conv after SPP
      "SPP_{2,1}-P_{2,2}",               // pool after SPP
      "C_{64,3,1}-SPP_{2,1}-SPP_{2,1}",  // duplicate SPP
      "F_{128}-SPP_{2,1}",               // F before SPP
      "C_{64,3}-SPP_{2,1}",              // conv arity
      "P_{2}-SPP_{2,1}",                 // pool arity
      "SPP_{2,1}-F_{128,2}",             // fc arity
      "C_{64,3,1}",                      // missing SPP
  };
  for (const char* notation : malformed) {
    EXPECT_THROW(parse_notation(notation), ConfigError) << notation;
  }
}

TEST(Config, SppFeaturesAndChannels) {
  const SppNetConfig config = original_sppnet();
  EXPECT_EQ(config.trunk_out_channels(), 256);
  // 256 * (16 + 4 + 1)
  EXPECT_EQ(config.spp_features(), 256 * 21);
  const SppNetConfig c2 = sppnet_candidate2();
  EXPECT_EQ(c2.spp_features(), 256 * 30);  // 25 + 4 + 1
}

TEST(Config, TrunkOutSize) {
  const SppNetConfig config = original_sppnet();
  // 100 -> conv(same) 100 -> pool 50 -> 50 -> 25 -> 25 -> 12
  EXPECT_EQ(config.trunk_out_size(100), 12);
  EXPECT_EQ(config.trunk_out_size(64), 8);
  EXPECT_EQ(config.trunk_out_size(32), 4);
}

TEST(Config, ParameterCountMatchesBuiltModel) {
  Rng rng(1);
  for (const SppNetConfig& config : table1_models()) {
    SppNet model(config, rng);
    EXPECT_EQ(config.parameter_count(), model.num_parameters())
        << config.name;
  }
}

TEST(Config, ParameterCountOrdering) {
  // Wider FC -> more parameters; SPP_{5} -> larger FC input than SPP_{4}.
  EXPECT_GT(sppnet_candidate2().parameter_count(),
            sppnet_candidate3().parameter_count());
  EXPECT_GT(sppnet_candidate3().parameter_count(),
            original_sppnet().parameter_count());
}

TEST(Config, CustomChannelCount) {
  const SppNetConfig config =
      parse_notation("C_{8,3,1}-SPP_{2,1}-F_{16}", 1);
  EXPECT_EQ(config.in_channels, 1);
  EXPECT_EQ(config.spp_features(), 8 * 5);
}

}  // namespace
}  // namespace dcn::detect
