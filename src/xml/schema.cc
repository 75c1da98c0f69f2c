#include "xml/schema.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/logging.h"

namespace uxm {

uint64_t Schema::NextSchemaUid() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

SchemaNodeId Schema::AddRoot(std::string_view name) {
  UXM_CHECK_MSG(nodes_.empty(), "AddRoot called twice");
  SchemaNode n;
  n.id = 0;
  n.name = std::string(name);
  n.parent = kInvalidSchemaNode;
  n.depth = 0;
  nodes_.push_back(std::move(n));
  return 0;
}

SchemaNodeId Schema::AddChild(SchemaNodeId parent, std::string_view name,
                              bool repeatable, bool optional) {
  UXM_CHECK_MSG(!finalized_, "AddChild after Finalize");
  UXM_CHECK(parent >= 0 && parent < size());
  SchemaNode n;
  n.id = static_cast<SchemaNodeId>(nodes_.size());
  n.name = std::string(name);
  n.parent = parent;
  n.depth = nodes_[static_cast<size_t>(parent)].depth + 1;
  n.repeatable = repeatable;
  n.optional = optional;
  nodes_[static_cast<size_t>(parent)].children.push_back(n.id);
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

void Schema::Finalize() {
  UXM_CHECK_MSG(!nodes_.empty(), "Finalize on empty schema");
  const size_t n = nodes_.size();
  paths_.assign(n, "");
  subtree_size_.assign(n, 1);
  pre_rank_.assign(n, 0);
  post_order_.clear();
  post_order_.reserve(n);
  path_index_.clear();
  name_index_.clear();

  // Iterative DFS computing pre-order ranks, paths, and post-order.
  struct Frame {
    SchemaNodeId id;
    size_t child_idx;
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0});
  int pre = 0;
  paths_[0] = nodes_[0].name;
  pre_rank_[0] = pre++;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const SchemaNode& node = nodes_[static_cast<size_t>(f.id)];
    if (f.child_idx < node.children.size()) {
      const SchemaNodeId c = node.children[f.child_idx++];
      paths_[static_cast<size_t>(c)] = paths_[static_cast<size_t>(f.id)] + "." +
                                       nodes_[static_cast<size_t>(c)].name;
      pre_rank_[static_cast<size_t>(c)] = pre++;
      stack.push_back({c, 0});
    } else {
      post_order_.push_back(f.id);
      if (node.parent != kInvalidSchemaNode) {
        subtree_size_[static_cast<size_t>(node.parent)] +=
            subtree_size_[static_cast<size_t>(f.id)];
      }
      stack.pop_back();
    }
  }

  height_ = 0;
  for (const SchemaNode& node : nodes_) {
    height_ = std::max(height_, node.depth);
    path_index_.emplace(paths_[static_cast<size_t>(node.id)], node.id);
    name_index_[node.name].push_back(node.id);
  }
  finalized_ = true;
}

bool Schema::IsAncestorOrSelf(SchemaNodeId anc, SchemaNodeId desc) const {
  // Walk up from desc; depth-bounded so O(height).
  SchemaNodeId cur = desc;
  while (cur != kInvalidSchemaNode) {
    if (cur == anc) return true;
    cur = nodes_[static_cast<size_t>(cur)].parent;
  }
  return false;
}

std::vector<SchemaNodeId> Schema::SubtreeNodes(SchemaNodeId id) const {
  std::vector<SchemaNodeId> out;
  out.reserve(static_cast<size_t>(subtree_size(id)));
  std::vector<SchemaNodeId> stack{id};
  while (!stack.empty()) {
    const SchemaNodeId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    const auto& ch = nodes_[static_cast<size_t>(cur)].children;
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

std::vector<SchemaNodeId> Schema::Leaves() const {
  std::vector<SchemaNodeId> out;
  for (const SchemaNode& n : nodes_) {
    if (n.children.empty()) out.push_back(n.id);
  }
  return out;
}

std::vector<SchemaNodeId> Schema::FindByName(std::string_view name) const {
  auto it = name_index_.find(std::string(name));
  if (it == name_index_.end()) return {};
  return it->second;
}

SchemaNodeId Schema::FindByPath(std::string_view path) const {
  auto it = path_index_.find(std::string(path));
  if (it == path_index_.end()) return kInvalidSchemaNode;
  return it->second;
}

std::string Schema::ToOutline() const {
  std::string out;
  std::vector<std::pair<SchemaNodeId, int>> stack{{root(), 0}};
  while (!stack.empty()) {
    auto [id, indent] = stack.back();
    stack.pop_back();
    out.append(static_cast<size_t>(indent) * 2, ' ');
    out += nodes_[static_cast<size_t>(id)].name;
    out += '\n';
    const auto& ch = nodes_[static_cast<size_t>(id)].children;
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) {
      stack.push_back({*it, indent + 1});
    }
  }
  return out;
}

}  // namespace uxm
