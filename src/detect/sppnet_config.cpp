#include "detect/sppnet_config.hpp"

#include <sstream>

#include "core/error.hpp"

namespace dcn::detect {
namespace {

// Malformed notation is a ConfigError, the failure parse_notation documents.
void require(bool ok, const std::string& what) {
  if (!ok) throw ConfigError(what);
}

// Parse "{a,b,c}" (1 to 3 comma-separated integers) after a prefix.
std::vector<std::int64_t> parse_braced_ints(const std::string& token,
                                            std::size_t prefix_len,
                                            const std::string& context) {
  require(token.size() > prefix_len + 2 && token[prefix_len] == '{' &&
              token.back() == '}',
          "malformed " + context + " token '" + token + "'");
  const std::string inner =
      token.substr(prefix_len + 1, token.size() - prefix_len - 2);
  std::vector<std::int64_t> values;
  std::istringstream is(inner);
  std::string part;
  while (std::getline(is, part, ',')) {
    try {
      std::size_t pos = 0;
      values.push_back(std::stoll(part, &pos));
      require(pos == part.size(), "trailing junk in '" + part + "'");
    } catch (const std::exception&) {
      throw ConfigError("bad integer '" + part + "' in " + context +
                        " token '" + token + "'");
    }
  }
  require(!values.empty(), "empty " + context + " token");
  return values;
}

}  // namespace

std::int64_t SppNetConfig::trunk_out_channels() const {
  std::int64_t channels = in_channels;
  for (const TrunkStage& stage : trunk) {
    if (stage.kind == TrunkStage::Kind::kConv) channels = stage.conv.filters;
  }
  return channels;
}

std::int64_t SppNetConfig::spp_features() const {
  std::int64_t cells = 0;
  for (std::int64_t l : spp_levels) cells += l * l;
  return trunk_out_channels() * cells;
}

std::int64_t SppNetConfig::trunk_out_size(std::int64_t size) const {
  for (const TrunkStage& stage : trunk) {
    if (stage.kind == TrunkStage::Kind::kConv) {
      const std::int64_t pad = stage.conv.kernel / 2;
      size = (size + 2 * pad - stage.conv.kernel) / stage.conv.stride + 1;
    } else {
      size = (size - stage.pool.kernel) / stage.pool.stride + 1;
    }
  }
  return size;
}

std::string SppNetConfig::to_notation() const {
  std::ostringstream os;
  bool first = true;
  auto sep = [&] {
    if (!first) os << '-';
    first = false;
  };
  for (const TrunkStage& stage : trunk) {
    sep();
    if (stage.kind == TrunkStage::Kind::kConv) {
      os << "C_{" << stage.conv.filters << ',' << stage.conv.kernel << ','
         << stage.conv.stride << '}';
    } else {
      os << "P_{" << stage.pool.kernel << ',' << stage.pool.stride << '}';
    }
  }
  sep();
  os << "SPP_{";
  for (std::size_t i = 0; i < spp_levels.size(); ++i) {
    if (i) os << ',';
    os << spp_levels[i];
  }
  os << '}';
  for (std::int64_t fc : fc_sizes) {
    os << "-F_{" << fc << '}';
  }
  return os.str();
}

std::int64_t SppNetConfig::parameter_count() const {
  std::int64_t total = 0;
  std::int64_t channels = in_channels;
  for (const TrunkStage& stage : trunk) {
    if (stage.kind == TrunkStage::Kind::kConv) {
      total += stage.conv.filters *
                   (channels * stage.conv.kernel * stage.conv.kernel) +
               stage.conv.filters;
      channels = stage.conv.filters;
    }
  }
  std::int64_t features = spp_features();
  for (std::int64_t fc : fc_sizes) {
    total += features * fc + fc;
    features = fc;
  }
  total += features * head_outputs + head_outputs;
  return total;
}

SppNetConfig parse_notation(const std::string& notation,
                            std::int64_t in_channels) {
  SppNetConfig config;
  config.in_channels = in_channels;
  config.name = notation;

  std::vector<std::string> tokens;
  std::string token;
  // Tokens are separated by '-' outside of braces.
  int depth = 0;
  for (char ch : notation) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    if (ch == '-' && depth == 0) {
      if (!token.empty()) tokens.push_back(token);
      token.clear();
      continue;
    }
    token += ch;
  }
  if (!token.empty()) tokens.push_back(token);
  require(!tokens.empty(), "empty architecture notation");

  bool seen_spp = false;
  for (const std::string& t : tokens) {
    if (t.rfind("C_", 0) == 0) {
      require(!seen_spp, "conv after SPP in '" + notation + "'");
      const auto v = parse_braced_ints(t, 2, "conv");
      require(v.size() == 3, "conv needs {filters,kernel,stride}");
      TrunkStage stage;
      stage.kind = TrunkStage::Kind::kConv;
      stage.conv = {v[0], v[1], v[2]};
      config.trunk.push_back(stage);
    } else if (t.rfind("P_", 0) == 0) {
      require(!seen_spp, "pool after SPP in '" + notation + "'");
      const auto v = parse_braced_ints(t, 2, "pool");
      require(v.size() == 2, "pool needs {kernel,stride}");
      TrunkStage stage;
      stage.kind = TrunkStage::Kind::kPool;
      stage.pool = {v[0], v[1]};
      config.trunk.push_back(stage);
    } else if (t.rfind("SPP_", 0) == 0) {
      require(!seen_spp, "duplicate SPP in '" + notation + "'");
      config.spp_levels = parse_braced_ints(t, 4, "SPP");
      seen_spp = true;
    } else if (t.rfind("F_", 0) == 0) {
      require(seen_spp, "F before SPP in '" + notation + "'");
      const auto v = parse_braced_ints(t, 2, "fc");
      require(v.size() == 1, "fc needs {neurons}");
      config.fc_sizes.push_back(v[0]);
    } else {
      throw ConfigError("unknown token '" + t + "' in architecture '" +
                        notation + "'");
    }
  }
  require(seen_spp, "architecture '" + notation + "' lacks an SPP layer");
  return config;
}

namespace {

SppNetConfig table1_model(const std::string& name,
                          std::int64_t conv1_kernel,
                          std::int64_t spp_first_level,
                          std::int64_t fc_size) {
  std::ostringstream os;
  os << "C_{64," << conv1_kernel << ",1}-P_{2,2}-C_{128,3,1}-P_{2,2}"
     << "-C_{256,3,1}-P_{2,2}-SPP_{" << spp_first_level;
  if (spp_first_level > 2) os << ",2";
  if (spp_first_level > 1) os << ",1";
  os << "}-F_{" << fc_size << '}';
  SppNetConfig config = parse_notation(os.str());
  config.name = name;
  return config;
}

}  // namespace

SppNetConfig original_sppnet() {
  return table1_model("Original SPP-Net", 3, 4, 1024);
}

SppNetConfig sppnet_candidate1() {
  return table1_model("SPP-Net #1", 5, 4, 1024);
}

SppNetConfig sppnet_candidate2() {
  return table1_model("SPP-Net #2", 3, 5, 4096);
}

SppNetConfig sppnet_candidate3() {
  return table1_model("SPP-Net #3", 3, 5, 2048);
}

std::vector<SppNetConfig> table1_models() {
  return {original_sppnet(), sppnet_candidate1(), sppnet_candidate2(),
          sppnet_candidate3()};
}

}  // namespace dcn::detect
