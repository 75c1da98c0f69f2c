#include "snapshot/snapshot_loader.h"

#include <cstring>
#include <map>
#include <utility>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "snapshot/snapshot_format.h"

namespace uxm {

namespace {

Status Damaged(uint32_t kind, uint32_t owner, const std::string& what) {
  return Status::DataLoss(std::string("snapshot section '") +
                          SnapshotSectionKindName(kind) + "' (owner " +
                          std::to_string(owner) + "): " + what);
}

Status Damaged(const SectionEntry& e, const std::string& what) {
  return Damaged(e.kind, e.owner, what);
}

/// Bounds-checked cursor over one blob section. Every Read returns false
/// instead of walking past the payload, so a truncated or bit-flipped
/// length can never cause an out-of-bounds read.
class BlobReader {
 public:
  BlobReader(const uint8_t* data, size_t size) : p_(data), remaining_(size) {}

  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadI32(int32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }

  bool ReadString(std::string* out) {
    uint32_t len = 0;
    if (!ReadU32(&len) || len > remaining_) return false;
    out->assign(reinterpret_cast<const char*>(p_), len);
    p_ += len;
    remaining_ -= len;
    return true;
  }

  bool AtEnd() const { return remaining_ == 0; }

 private:
  bool ReadRaw(void* out, size_t n) {
    if (n > remaining_) return false;
    std::memcpy(out, p_, n);
    p_ += n;
    remaining_ -= n;
    return true;
  }

  const uint8_t* p_;
  size_t remaining_;
};

/// Header + directory, validated far enough to enumerate sections. The
/// caller decides how much per-section damage it tolerates (LoadSnapshot:
/// none; InspectSnapshot: reports it).
struct OpenedSnapshot {
  std::shared_ptr<const MappedFile> file;
  SnapshotHeader header;
  std::vector<SectionEntry> directory;
  bool directory_ok = false;
};

Result<OpenedSnapshot> OpenSnapshot(const std::string& path) {
  OpenedSnapshot opened;
  {
    UXM_ASSIGN_OR_RETURN(MappedFile mapped, MappedFile::Open(path));
    opened.file = std::make_shared<const MappedFile>(std::move(mapped));
  }
  const MappedFile& file = *opened.file;
  if (file.size() < sizeof(SnapshotHeader)) {
    return Status::DataLoss("snapshot header: file is " +
                            std::to_string(file.size()) +
                            " bytes, smaller than the 64-byte header");
  }
  std::memcpy(&opened.header, file.data(), sizeof(SnapshotHeader));
  const SnapshotHeader& h = opened.header;
  if (std::memcmp(h.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::DataLoss("snapshot header: bad magic (not a snapshot?)");
  }
  if (h.version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot header: unsupported format version " +
        std::to_string(h.version) + " (this build reads version " +
        std::to_string(kSnapshotVersion) + ")");
  }
  if (h.directory_offset != sizeof(SnapshotHeader)) {
    return Status::DataLoss("snapshot header: directory offset " +
                            std::to_string(h.directory_offset) +
                            " is not " + std::to_string(sizeof(SnapshotHeader)));
  }
  if (h.file_size != file.size()) {
    return Status::DataLoss(
        "snapshot header: recorded file size " + std::to_string(h.file_size) +
        " != actual " + std::to_string(file.size()) + " (truncated?)");
  }
  const uint64_t dir_bytes =
      static_cast<uint64_t>(h.section_count) * sizeof(SectionEntry);
  if (h.section_count == 0 ||
      dir_bytes > file.size() - sizeof(SnapshotHeader)) {
    return Status::DataLoss("snapshot header: section count " +
                            std::to_string(h.section_count) +
                            " does not fit in the file");
  }
  opened.directory.resize(h.section_count);
  std::memcpy(opened.directory.data(), file.data() + h.directory_offset,
              dir_bytes);
  opened.directory_ok =
      Fnv1a64(opened.directory.data(), dir_bytes) == h.directory_checksum;
  return opened;
}

/// Range-checks one directory entry against the mapped file.
Status CheckSectionRange(const MappedFile& file, const SectionEntry& e) {
  if (e.offset > file.size() || e.length > file.size() - e.offset) {
    return Damaged(e, "extends past the end of the file (offset " +
                          std::to_string(e.offset) + ", length " +
                          std::to_string(e.length) + ")");
  }
  return Status::OK();
}

/// Cuts a typed zero-copy span out of a raw array section.
template <typename T>
Status RawSpan(const MappedFile& file, const SectionEntry& e,
               ConstSpan<T>* out) {
  if (e.length % sizeof(T) != 0) {
    return Damaged(e, "length " + std::to_string(e.length) +
                          " is not a multiple of the element size");
  }
  if (e.offset % alignof(T) != 0) {
    return Damaged(e, "offset is not aligned for its element type");
  }
  *out = ConstSpan<T>(reinterpret_cast<const T*>(file.data() + e.offset),
                      e.length / sizeof(T));
  return Status::OK();
}

Result<std::shared_ptr<const Schema>> ParseSchema(const MappedFile& file,
                                                  const SectionEntry& e) {
  BlobReader r(file.data() + e.offset, e.length);
  std::string schema_name;
  uint32_t node_count = 0;
  if (!r.ReadString(&schema_name) || !r.ReadU32(&node_count)) {
    return Damaged(e, "truncated schema record");
  }
  if (node_count == 0 || node_count > e.length) {
    return Damaged(e, "implausible node count " + std::to_string(node_count));
  }
  auto schema = std::make_shared<Schema>(std::move(schema_name));
  for (uint32_t i = 0; i < node_count; ++i) {
    int32_t parent = 0;
    uint8_t flags = 0;
    std::string name;
    if (!r.ReadI32(&parent) || !r.ReadU8(&flags) || !r.ReadString(&name)) {
      return Damaged(e, "truncated at schema node " + std::to_string(i));
    }
    if (i == 0) {
      if (parent != kInvalidSchemaNode) {
        return Damaged(e, "root node has a parent");
      }
      schema->AddRoot(name);
    } else {
      if (parent < 0 || static_cast<uint32_t>(parent) >= i) {
        return Damaged(e, "schema node " + std::to_string(i) +
                              " has out-of-order parent " +
                              std::to_string(parent));
      }
      schema->AddChild(parent, name, (flags & 1) != 0, (flags & 2) != 0);
    }
    if ((flags & 4) == 0) {
      schema->set_leaf_has_text(static_cast<SchemaNodeId>(i), false);
    }
  }
  if (!r.AtEnd()) return Damaged(e, "trailing bytes after last schema node");
  schema->Finalize();
  return std::shared_ptr<const Schema>(std::move(schema));
}

Status ParseMatching(const MappedFile& file, const SectionEntry& e,
                     const Schema* source, const Schema* target,
                     SchemaMatching* out) {
  BlobReader r(file.data() + e.offset, e.length);
  uint32_t count = 0;
  if (!r.ReadU32(&count)) return Damaged(e, "truncated matching record");
  *out = SchemaMatching(source, target);
  for (uint32_t i = 0; i < count; ++i) {
    int32_t src = 0;
    int32_t tgt = 0;
    double score = 0.0;
    if (!r.ReadI32(&src) || !r.ReadI32(&tgt) || !r.ReadF64(&score)) {
      return Damaged(e, "truncated at correspondence " + std::to_string(i));
    }
    const Status added = out->Add(src, tgt, score);
    if (!added.ok()) {
      return Damaged(e, "correspondence " + std::to_string(i) +
                            " rejected: " + added.message());
    }
  }
  if (!r.AtEnd()) return Damaged(e, "trailing bytes after last correspondence");
  return Status::OK();
}

Result<std::shared_ptr<const Document>> ParseDocument(const MappedFile& file,
                                                      const SectionEntry& e) {
  BlobReader r(file.data() + e.offset, e.length);
  uint32_t node_count = 0;
  if (!r.ReadU32(&node_count)) return Damaged(e, "truncated document record");
  if (node_count == 0 || node_count > e.length) {
    return Damaged(e, "implausible node count " + std::to_string(node_count));
  }
  auto doc = std::make_shared<Document>();
  for (uint32_t i = 0; i < node_count; ++i) {
    int32_t parent = 0;
    std::string label;
    std::string text;
    if (!r.ReadI32(&parent) || !r.ReadString(&label) ||
        !r.ReadString(&text)) {
      return Damaged(e, "truncated at document node " + std::to_string(i));
    }
    if (i == 0) {
      if (parent != kInvalidDocNode) {
        return Damaged(e, "root node has a parent");
      }
      doc->AddRoot(label);
      if (!text.empty()) doc->SetText(0, text);
    } else {
      if (parent < 0 || static_cast<uint32_t>(parent) >= i) {
        return Damaged(e, "document node " + std::to_string(i) +
                              " has out-of-order parent " +
                              std::to_string(parent));
      }
      doc->AddChild(parent, label, text);
    }
  }
  if (!r.AtEnd()) return Damaged(e, "trailing bytes after last document node");
  doc->Finalize();
  return std::shared_ptr<const Document>(std::move(doc));
}

/// begin[] arrays must start at 0, never decrease, and end at `total` —
/// the kernel indexes the co-arrays through them unchecked.
Status CheckBeginArray(const SectionEntry& e, ConstSpan<uint32_t> begin,
                       uint64_t expected_size, uint64_t total) {
  if (begin.size() != expected_size) {
    return Damaged(e, "has " + std::to_string(begin.size()) +
                          " entries, expected " +
                          std::to_string(expected_size));
  }
  if (begin[0] != 0) return Damaged(e, "does not start at 0");
  for (size_t i = 1; i < begin.size(); ++i) {
    if (begin[i] < begin[i - 1]) {
      return Damaged(e, "decreases at entry " + std::to_string(i));
    }
  }
  if (begin[begin.size() - 1] != total) {
    return Damaged(e, "ends at " + std::to_string(begin[begin.size() - 1]) +
                          ", expected " + std::to_string(total));
  }
  return Status::OK();
}

}  // namespace

Result<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  UXM_ASSIGN_OR_RETURN(OpenedSnapshot opened, OpenSnapshot(path));
  const MappedFile& file = *opened.file;
  if (!opened.directory_ok) {
    return Status::DataLoss("snapshot directory: checksum mismatch");
  }

  // Verify every payload before parsing any, and index sections by
  // (kind, owner): all subsequent lookups are against verified bytes.
  std::map<std::pair<uint32_t, uint32_t>, const SectionEntry*> index;
  for (const SectionEntry& e : opened.directory) {
    UXM_INJECT_FAULT(FaultSite::kSnapshotSection);
    UXM_RETURN_NOT_OK(CheckSectionRange(file, e));
    if (Fnv1a64(file.data() + e.offset, e.length) != e.checksum) {
      return Damaged(e, "checksum mismatch");
    }
    if (SnapshotSectionKindName(e.kind) == std::string("unknown")) {
      return Damaged(e, "unknown section kind " + std::to_string(e.kind));
    }
    if (!index.emplace(std::make_pair(e.kind, e.owner), &e).second) {
      return Damaged(e, "duplicate section");
    }
  }

  const auto find = [&index](uint32_t kind,
                             uint32_t owner) -> const SectionEntry* {
    const auto it = index.find(std::make_pair(kind, owner));
    return it == index.end() ? nullptr : it->second;
  };
  const auto require = [&find](uint32_t kind, uint32_t owner,
                               const SectionEntry** out) -> Status {
    *out = find(kind, owner);
    if (*out == nullptr) return Damaged(kind, owner, "missing section");
    return Status::OK();
  };

  const SectionEntry* meta = nullptr;
  UXM_RETURN_NOT_OK(require(kMeta, 0, &meta));
  uint32_t pair_count = 0;
  uint32_t doc_count = 0;
  int32_t default_pair = -1;
  {
    BlobReader r(file.data() + meta->offset, meta->length);
    uint32_t reserved = 0;
    if (!r.ReadU32(&pair_count) || !r.ReadU32(&doc_count) ||
        !r.ReadI32(&default_pair) || !r.ReadU32(&reserved) || !r.AtEnd()) {
      return Damaged(*meta, "malformed meta record");
    }
    if (default_pair < -1 ||
        default_pair >= static_cast<int32_t>(pair_count)) {
      return Damaged(*meta, "default pair " + std::to_string(default_pair) +
                                " out of range");
    }
    const uint64_t expected = 1 + static_cast<uint64_t>(pair_count) * 15 +
                              static_cast<uint64_t>(doc_count) * 3;
    if (expected != opened.header.section_count) {
      return Damaged(*meta,
                     "section count " +
                         std::to_string(opened.header.section_count) +
                         " does not match " + std::to_string(pair_count) +
                         " pairs + " + std::to_string(doc_count) + " docs");
    }
  }

  LoadedSnapshot snapshot;
  snapshot.file = opened.file;
  snapshot.file_bytes = file.size();
  snapshot.section_count = opened.header.section_count;
  snapshot.default_pair = default_pair;

  for (uint32_t p = 0; p < pair_count; ++p) {
    LoadedPair pair;
    const SectionEntry* e = nullptr;

    UXM_RETURN_NOT_OK(require(kPairSourceSchema, p, &e));
    UXM_ASSIGN_OR_RETURN(pair.source, ParseSchema(file, *e));
    UXM_RETURN_NOT_OK(require(kPairTargetSchema, p, &e));
    UXM_ASSIGN_OR_RETURN(pair.target, ParseSchema(file, *e));
    UXM_RETURN_NOT_OK(require(kPairMatching, p, &e));
    UXM_RETURN_NOT_OK(ParseMatching(file, *e, pair.source.get(),
                                      pair.target.get(), &pair.matching));

    const SectionEntry* table_meta = nullptr;
    UXM_RETURN_NOT_OK(require(kPairTableMeta, p, &table_meta));
    uint32_t num_mappings = 0;
    uint32_t num_targets = 0;
    {
      BlobReader r(file.data() + table_meta->offset, table_meta->length);
      if (!r.ReadU32(&num_mappings) || !r.ReadU32(&num_targets) ||
          !r.AtEnd()) {
        return Damaged(*table_meta, "malformed table meta record");
      }
      if (num_targets != static_cast<uint32_t>(pair.target->size())) {
        return Damaged(*table_meta,
                       "row stride " + std::to_string(num_targets) +
                           " != target schema size " +
                           std::to_string(pair.target->size()));
      }
    }
    const int32_t source_size = pair.source->size();

    auto flat = std::make_shared<FlatPairIndex>();
    flat->storage = opened.file;
    flat->mappings.num_mappings = num_mappings;
    flat->mappings.num_targets = num_targets;

    UXM_RETURN_NOT_OK(require(kPairMapSourceFor, p, &e));
    UXM_RETURN_NOT_OK(RawSpan(file, *e, &flat->mappings.source_for));
    if (flat->mappings.source_for.size() !=
        static_cast<uint64_t>(num_mappings) * num_targets) {
      return Damaged(*e, "has " +
                             std::to_string(flat->mappings.source_for.size()) +
                             " entries, expected num_mappings * num_targets");
    }
    for (SchemaNodeId s : flat->mappings.source_for) {
      if (s < kInvalidSchemaNode || s >= source_size) {
        return Damaged(*e, "references source element " + std::to_string(s) +
                               " outside the source schema");
      }
    }

    UXM_RETURN_NOT_OK(require(kPairMapProbability, p, &e));
    UXM_RETURN_NOT_OK(RawSpan(file, *e, &flat->mappings.probability));
    if (flat->mappings.probability.size() != num_mappings) {
      return Damaged(*e, "has " +
                             std::to_string(flat->mappings.probability.size()) +
                             " entries, expected one per mapping");
    }

    FlatBlockTree& tree = flat->tree;
    UXM_RETURN_NOT_OK(require(kPairTreeNodeBlockBegin, p, &e));
    UXM_RETURN_NOT_OK(RawSpan(file, *e, &tree.node_block_begin));
    const SectionEntry* corr_begin_e = nullptr;
    UXM_RETURN_NOT_OK(require(kPairTreeCorrBegin, p, &corr_begin_e));
    UXM_RETURN_NOT_OK(RawSpan(file, *corr_begin_e, &tree.corr_begin));
    const SectionEntry* map_begin_e = nullptr;
    UXM_RETURN_NOT_OK(require(kPairTreeMapBegin, p, &map_begin_e));
    UXM_RETURN_NOT_OK(RawSpan(file, *map_begin_e, &tree.map_begin));
    const SectionEntry* corr_target_e = nullptr;
    UXM_RETURN_NOT_OK(require(kPairTreeCorrTarget, p, &corr_target_e));
    UXM_RETURN_NOT_OK(RawSpan(file, *corr_target_e, &tree.corr_target));
    const SectionEntry* corr_source_e = nullptr;
    UXM_RETURN_NOT_OK(require(kPairTreeCorrSource, p, &corr_source_e));
    UXM_RETURN_NOT_OK(RawSpan(file, *corr_source_e, &tree.corr_source));
    const SectionEntry* block_map_e = nullptr;
    UXM_RETURN_NOT_OK(require(kPairTreeBlockMappings, p, &block_map_e));
    UXM_RETURN_NOT_OK(RawSpan(file, *block_map_e, &tree.block_mappings));
    const SectionEntry* anchored_e = nullptr;
    UXM_RETURN_NOT_OK(require(kPairTreeSelfAnchored, p, &anchored_e));
    UXM_RETURN_NOT_OK(RawSpan(file, *anchored_e, &tree.self_anchored));

    if (tree.node_block_begin.empty()) {
      // Algorithm-3-only pair: every tree section must be empty.
      if (!tree.corr_begin.empty() || !tree.map_begin.empty() ||
          !tree.corr_target.empty() || !tree.corr_source.empty() ||
          !tree.block_mappings.empty() || !tree.self_anchored.empty()) {
        return Damaged(*e, "empty, but other block-tree sections are not");
      }
    } else {
      const uint64_t num_blocks = tree.corr_begin.empty()
                                      ? 0
                                      : tree.corr_begin.size() - 1;
      UXM_RETURN_NOT_OK(CheckBeginArray(*e, tree.node_block_begin,
                                          static_cast<uint64_t>(num_targets) +
                                              1,
                                          num_blocks));
      UXM_RETURN_NOT_OK(CheckBeginArray(*corr_begin_e, tree.corr_begin,
                                          num_blocks + 1,
                                          tree.corr_target.size()));
      UXM_RETURN_NOT_OK(CheckBeginArray(*map_begin_e, tree.map_begin,
                                          num_blocks + 1,
                                          tree.block_mappings.size()));
      if (tree.corr_source.size() != tree.corr_target.size()) {
        return Damaged(*corr_source_e,
                       "size differs from its parallel target column");
      }
      for (SchemaNodeId t : tree.corr_target) {
        if (t < 0 || static_cast<uint32_t>(t) >= num_targets) {
          return Damaged(*corr_target_e, "references target element " +
                                             std::to_string(t) +
                                             " outside the target schema");
        }
      }
      for (SchemaNodeId s : tree.corr_source) {
        if (s < 0 || s >= source_size) {
          return Damaged(*corr_source_e, "references source element " +
                                             std::to_string(s) +
                                             " outside the source schema");
        }
      }
      for (MappingId m : tree.block_mappings) {
        if (m < 0 || static_cast<uint32_t>(m) >= num_mappings) {
          return Damaged(*block_map_e, "references mapping " +
                                           std::to_string(m) +
                                           " out of range");
        }
      }
      if (tree.self_anchored.size() != num_targets) {
        return Damaged(*anchored_e,
                       "has " + std::to_string(tree.self_anchored.size()) +
                           " entries, expected one per target element");
      }
    }

    ConstSpan<MappingId> order_ids;
    ConstSpan<double> order_residual;
    const SectionEntry* order_e = nullptr;
    UXM_RETURN_NOT_OK(require(kPairOrderByProbability, p, &order_e));
    UXM_RETURN_NOT_OK(RawSpan(file, *order_e, &order_ids));
    if (order_ids.size() != num_mappings) {
      return Damaged(*order_e, "has " + std::to_string(order_ids.size()) +
                                   " entries, expected one per mapping");
    }
    std::vector<uint8_t> seen(num_mappings, 0);
    for (MappingId m : order_ids) {
      if (m < 0 || static_cast<uint32_t>(m) >= num_mappings ||
          seen[static_cast<size_t>(m)] != 0) {
        return Damaged(*order_e, "is not a permutation of the mapping ids");
      }
      seen[static_cast<size_t>(m)] = 1;
    }
    UXM_RETURN_NOT_OK(require(kPairOrderResidual, p, &e));
    UXM_RETURN_NOT_OK(RawSpan(file, *e, &order_residual));
    if (order_residual.size() != num_mappings) {
      return Damaged(*e, "has " + std::to_string(order_residual.size()) +
                             " entries, expected one per mapping");
    }
    auto order = std::make_shared<MappingOrder>();
    order->by_probability.assign(order_ids.begin(), order_ids.end());
    order->residual_after.assign(order_residual.begin(),
                                 order_residual.end());

    pair.flat = std::move(flat);
    pair.order = std::move(order);
    snapshot.pairs.push_back(std::move(pair));
  }

  for (uint32_t d = 0; d < doc_count; ++d) {
    LoadedDoc doc;
    const SectionEntry* e = nullptr;

    UXM_RETURN_NOT_OK(require(kDocMeta, d, &e));
    {
      BlobReader r(file.data() + e->offset, e->length);
      if (!r.ReadU32(&doc.pair_index) || !r.ReadString(&doc.name) ||
          !r.AtEnd()) {
        return Damaged(*e, "malformed doc meta record");
      }
      // The corpus store rejects empty names; catch it here so the facade's
      // all-or-nothing load never fails mid-install.
      if (doc.name.empty()) {
        return Damaged(*e, "has an empty document name");
      }
      if (doc.pair_index >= pair_count) {
        return Damaged(*e, "references pair " +
                               std::to_string(doc.pair_index) +
                               " out of range");
      }
    }

    UXM_RETURN_NOT_OK(require(kDocNodes, d, &e));
    UXM_ASSIGN_OR_RETURN(doc.doc, ParseDocument(file, *e));

    UXM_RETURN_NOT_OK(require(kDocElements, d, &e));
    ConstSpan<SchemaNodeId> elements;
    UXM_RETURN_NOT_OK(RawSpan(file, *e, &elements));
    if (elements.size() != static_cast<size_t>(doc.doc->size())) {
      return Damaged(*e, "has " + std::to_string(elements.size()) +
                             " entries for a document of " +
                             std::to_string(doc.doc->size()) + " nodes");
    }
    auto annotated_result = AnnotatedDocument::FromParts(
        doc.doc.get(), snapshot.pairs[doc.pair_index].source.get(),
        std::vector<SchemaNodeId>(elements.begin(), elements.end()));
    if (!annotated_result.ok()) {
      return Damaged(*e, annotated_result.status().message());
    }
    doc.annotated = std::make_shared<const AnnotatedDocument>(
        std::move(annotated_result).value());
    snapshot.documents.push_back(std::move(doc));
  }

  return snapshot;
}

Result<SnapshotInfo> InspectSnapshot(const std::string& path) {
  UXM_ASSIGN_OR_RETURN(OpenedSnapshot opened, OpenSnapshot(path));
  const MappedFile& file = *opened.file;

  SnapshotInfo info;
  info.version = opened.header.version;
  info.file_size = opened.header.file_size;
  info.directory_ok = opened.directory_ok;
  info.sections.reserve(opened.directory.size());
  for (const SectionEntry& e : opened.directory) {
    SnapshotSectionInfo s;
    s.kind = e.kind;
    s.owner = e.owner;
    s.offset = e.offset;
    s.length = e.length;
    s.checksum = e.checksum;
    s.checksum_ok =
        CheckSectionRange(file, e).ok() &&
        Fnv1a64(file.data() + e.offset, e.length) == e.checksum;
    info.sections.push_back(s);
    if (e.kind == kMeta && s.checksum_ok && e.length >= 12) {
      BlobReader r(file.data() + e.offset, e.length);
      r.ReadU32(&info.pair_count);
      r.ReadU32(&info.doc_count);
      r.ReadI32(&info.default_pair);
    }
  }
  return info;
}

}  // namespace uxm
