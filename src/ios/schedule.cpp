#include "ios/schedule.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "core/error.hpp"

namespace dcn::ios {

std::size_t Schedule::num_kernels() const {
  std::size_t n = 0;
  for (const Stage& stage : stages) {
    for (const Group& group : stage.groups) n += group.ops.size();
  }
  return n;
}

std::size_t Schedule::max_concurrency() const {
  std::size_t widest = 0;
  for (const Stage& stage : stages) {
    widest = std::max(widest, stage.groups.size());
  }
  return widest;
}

std::string Schedule::to_string(const graph::Graph& graph) const {
  std::ostringstream os;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    os << "stage " << s << ":\n";
    for (std::size_t g = 0; g < stages[s].groups.size(); ++g) {
      os << "  group " << g << ": ";
      const Group& group = stages[s].groups[g];
      for (std::size_t k = 0; k < group.ops.size(); ++k) {
        if (k) os << " -> ";
        os << graph.node(group.ops[k]).name;
      }
      os << '\n';
    }
  }
  return os.str();
}

void validate_schedule(const graph::Graph& graph, const Schedule& schedule) {
  // Position of each op: (stage, group, index-in-group).
  struct Pos {
    std::size_t stage, group, index;
  };
  std::map<graph::OpId, Pos> position;
  for (std::size_t s = 0; s < schedule.stages.size(); ++s) {
    const Stage& stage = schedule.stages[s];
    DCN_CHECK(!stage.groups.empty()) << "stage " << s << " has no groups";
    for (std::size_t g = 0; g < stage.groups.size(); ++g) {
      DCN_CHECK(!stage.groups[g].ops.empty())
          << "stage " << s << " group " << g << " is empty";
      for (std::size_t k = 0; k < stage.groups[g].ops.size(); ++k) {
        const graph::OpId id = stage.groups[g].ops[k];
        DCN_CHECK(!position.count(id))
            << "op " << id << " scheduled twice";
        position[id] = {s, g, k};
      }
    }
  }
  // Coverage: exactly the device ops.
  std::size_t device_ops = 0;
  for (const graph::OpNode& node : graph.nodes()) {
    if (!graph::is_device_op(node.kind)) continue;
    ++device_ops;
    DCN_CHECK(position.count(node.id))
        << "device op '" << node.name << "' missing from schedule";
  }
  DCN_CHECK(position.size() == device_ops)
      << "schedule contains non-device or foreign ops";

  // Dependencies.
  for (const auto& [id, pos] : position) {
    for (graph::OpId in : graph.node(id).inputs) {
      if (!position.count(in)) continue;  // produced by Input (host)
      const Pos& producer = position.at(in);
      const bool earlier_stage = producer.stage < pos.stage;
      const bool same_group_before = producer.stage == pos.stage &&
                                     producer.group == pos.group &&
                                     producer.index < pos.index;
      DCN_CHECK(earlier_stage || same_group_before)
          << "op '" << graph.node(id).name << "' runs before its producer '"
          << graph.node(in).name << "'";
    }
  }
}

Schedule sequential_schedule(const graph::Graph& graph) {
  Schedule schedule;
  for (const graph::OpNode& node : graph.nodes()) {
    if (!graph::is_device_op(node.kind)) continue;
    Stage stage;
    stage.groups.push_back(Group{{node.id}});
    schedule.stages.push_back(std::move(stage));
  }
  return schedule;
}

}  // namespace dcn::ios
