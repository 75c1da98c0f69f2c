// Schema tree model. An XML schema is represented the way the paper treats
// it: a rooted, ordered tree of named elements (Figure 1). Nodes carry a
// stable dense id so that correspondences, mappings, and blocks can index
// them with plain vectors.
#ifndef UXM_XML_SCHEMA_H_
#define UXM_XML_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace uxm {

/// Dense id of a schema element inside one Schema. Root is always 0.
using SchemaNodeId = int32_t;
inline constexpr SchemaNodeId kInvalidSchemaNode = -1;

/// \brief One element declaration in a schema tree.
struct SchemaNode {
  SchemaNodeId id = kInvalidSchemaNode;
  std::string name;                    ///< Element tag, e.g. "ContactName".
  SchemaNodeId parent = kInvalidSchemaNode;
  std::vector<SchemaNodeId> children;  ///< In declaration order.
  int depth = 0;                       ///< Root has depth 0.
  bool repeatable = false;             ///< maxOccurs > 1 (document gen hint).
  bool optional = false;               ///< minOccurs == 0 (document gen hint).
  bool leaf_has_text = true;           ///< Leaves carry text content.
};

/// \brief A rooted tree of element declarations.
///
/// Construction is append-only: AddRoot then AddChild; Finalize() computes
/// derived indexes (paths, subtree sizes, pre/post order). After Finalize()
/// the tree is immutable.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::string schema_name) : schema_name_(std::move(schema_name)) {}

  /// Process-unique id of this Schema object, assigned at construction
  /// and never reused (copies keep the original's uid but live at a
  /// different address — consumers key on the (pointer, uid) pair).
  /// Lets caches keyed on schema identity survive pointer reuse: a
  /// freed schema's address may be re-allocated, its uid cannot.
  uint64_t uid() const { return uid_; }

  /// Creates the root element. Must be called exactly once, first.
  SchemaNodeId AddRoot(std::string_view name);

  /// Appends a child element under `parent`. Returns the new node id.
  SchemaNodeId AddChild(SchemaNodeId parent, std::string_view name,
                        bool repeatable = false, bool optional = false);

  /// Overrides the text-content hint on an existing node (the snapshot
  /// loader restoring a serialized flag; AddChild defaults it to true).
  /// Affects no derived index, so it is safe before or after Finalize().
  void set_leaf_has_text(SchemaNodeId id, bool v) {
    nodes_[static_cast<size_t>(id)].leaf_has_text = v;
  }

  /// Computes derived indexes. Must be called once after construction.
  void Finalize();

  bool finalized() const { return finalized_; }

  const std::string& schema_name() const { return schema_name_; }
  void set_schema_name(std::string v) { schema_name_ = std::move(v); }

  /// Number of elements, |T| in the paper.
  int size() const { return static_cast<int>(nodes_.size()); }
  bool empty() const { return nodes_.empty(); }

  SchemaNodeId root() const { return nodes_.empty() ? kInvalidSchemaNode : 0; }

  const SchemaNode& node(SchemaNodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  const std::vector<SchemaNode>& nodes() const { return nodes_; }

  const std::string& name(SchemaNodeId id) const { return node(id).name; }

  /// Root-to-node path, e.g. "ORDER.IP.ICN" (the paper's hash-table key).
  const std::string& path(SchemaNodeId id) const {
    return paths_[static_cast<size_t>(id)];
  }

  /// Number of nodes in the subtree rooted at `id` (including `id`).
  int subtree_size(SchemaNodeId id) const {
    return subtree_size_[static_cast<size_t>(id)];
  }

  /// True if `anc` is `desc` or an ancestor of `desc`.
  bool IsAncestorOrSelf(SchemaNodeId anc, SchemaNodeId desc) const;

  /// Nodes of the subtree rooted at `id`, in pre-order.
  std::vector<SchemaNodeId> SubtreeNodes(SchemaNodeId id) const;

  /// All node ids in post-order (children before parents).
  const std::vector<SchemaNodeId>& post_order() const { return post_order_; }

  /// All leaves of the tree.
  std::vector<SchemaNodeId> Leaves() const;

  /// Height of the tree (root-only tree has height 0). Computed by
  /// Finalize(); 0 before it.
  int Height() const { return height_; }

  /// Finds nodes whose tag equals `name` (schemas may reuse tags in
  /// different contexts, like ContactName in Figure 1).
  std::vector<SchemaNodeId> FindByName(std::string_view name) const;

  /// Finds the unique node with root path `path` ("A.B.C"), or
  /// kInvalidSchemaNode.
  SchemaNodeId FindByPath(std::string_view path) const;

  /// Pre-order position of a node (0 = root).
  int pre_order_rank(SchemaNodeId id) const {
    return pre_rank_[static_cast<size_t>(id)];
  }

  /// Renders the tree as an indented outline (debugging, docs).
  std::string ToOutline() const;

 private:
  static uint64_t NextSchemaUid();

  uint64_t uid_ = NextSchemaUid();
  std::string schema_name_;
  std::vector<SchemaNode> nodes_;
  std::vector<std::string> paths_;
  std::vector<int> subtree_size_;
  std::vector<int> pre_rank_;
  std::vector<SchemaNodeId> post_order_;
  int height_ = 0;
  std::unordered_map<std::string, SchemaNodeId> path_index_;
  std::unordered_map<std::string, std::vector<SchemaNodeId>> name_index_;
  bool finalized_ = false;
};

}  // namespace uxm

#endif  // UXM_XML_SCHEMA_H_
