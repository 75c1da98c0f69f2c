#include "snapshot/snapshot_writer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "blocktree/flat_block_tree.h"
#include "common/checksum.h"
#include "snapshot/snapshot_format.h"

namespace uxm {

namespace {

/// One section being assembled: its directory identity plus the owned
/// payload bytes (raw arrays are copied here once at save time — saving
/// is the cold path; loading is the one that must not copy).
struct PendingSection {
  uint32_t kind = 0;
  uint32_t owner = 0;
  std::vector<uint8_t> payload;
};

void AppendBytes(std::vector<uint8_t>* out, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  out->insert(out->end(), p, p + len);
}

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  AppendBytes(out, &v, sizeof(v));
}

void AppendI32(std::vector<uint8_t>* out, int32_t v) {
  AppendBytes(out, &v, sizeof(v));
}

void AppendF64(std::vector<uint8_t>* out, double v) {
  AppendBytes(out, &v, sizeof(v));
}

void AppendString(std::vector<uint8_t>* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  AppendBytes(out, s.data(), s.size());
}

template <typename T>
PendingSection ArraySection(uint32_t kind, uint32_t owner,
                            ConstSpan<T> span) {
  PendingSection s;
  s.kind = kind;
  s.owner = owner;
  AppendBytes(&s.payload, span.data(), span.size() * sizeof(T));
  return s;
}

std::vector<uint8_t> SerializeSchema(const Schema& schema) {
  std::vector<uint8_t> blob;
  AppendString(&blob, schema.schema_name());
  AppendU32(&blob, static_cast<uint32_t>(schema.size()));
  for (const SchemaNode& node : schema.nodes()) {
    AppendI32(&blob, node.parent);
    uint8_t flags = 0;
    if (node.repeatable) flags |= 1;
    if (node.optional) flags |= 2;
    if (node.leaf_has_text) flags |= 4;
    AppendBytes(&blob, &flags, 1);
    AppendString(&blob, node.name);
  }
  return blob;
}

std::vector<uint8_t> SerializeMatching(const SchemaMatching& matching) {
  std::vector<uint8_t> blob;
  AppendU32(&blob, static_cast<uint32_t>(matching.size()));
  for (const Correspondence& c : matching.correspondences()) {
    AppendI32(&blob, c.source);
    AppendI32(&blob, c.target);
    AppendF64(&blob, c.score);
  }
  return blob;
}

std::vector<uint8_t> SerializeDocNodes(const Document& doc) {
  std::vector<uint8_t> blob;
  AppendU32(&blob, static_cast<uint32_t>(doc.size()));
  for (const DocNode& node : doc.nodes()) {
    AppendI32(&blob, node.parent);
    AppendString(&blob, node.label);
    AppendString(&blob, node.text);
  }
  return blob;
}

bool HostIsLittleEndian() {
  const uint16_t probe = 1;
  unsigned char first;
  std::memcpy(&first, &probe, 1);
  return first == 1;
}

}  // namespace

Result<SnapshotWriteResult> WriteSnapshot(const std::string& path,
                                          const SnapshotWriteInput& input) {
  if (!HostIsLittleEndian()) {
    return Status::Internal(
        "snapshot format is little-endian; refusing to write byte-swapped "
        "sections on a big-endian host");
  }
  if (input.default_pair < -1 ||
      input.default_pair >= static_cast<int32_t>(input.pairs.size())) {
    return Status::InvalidArgument("default_pair index out of range");
  }

  std::vector<PendingSection> sections;
  {
    PendingSection meta;
    meta.kind = kMeta;
    AppendU32(&meta.payload, static_cast<uint32_t>(input.pairs.size()));
    AppendU32(&meta.payload, static_cast<uint32_t>(input.documents.size()));
    AppendI32(&meta.payload, input.default_pair);
    AppendU32(&meta.payload, 0);  // reserved
    sections.push_back(std::move(meta));
  }

  for (size_t i = 0; i < input.pairs.size(); ++i) {
    const auto& pair = input.pairs[i];
    const auto owner = static_cast<uint32_t>(i);
    if (pair == nullptr || pair->flat == nullptr || pair->order == nullptr) {
      return Status::InvalidArgument("pair " + std::to_string(i) +
                                     " has no flat index / order");
    }
    if (pair->source() == nullptr || pair->target() == nullptr) {
      return Status::InvalidArgument("pair " + std::to_string(i) +
                                     " references null schemas");
    }
    const FlatPairIndex& flat = *pair->flat;

    PendingSection source{kPairSourceSchema, owner,
                          SerializeSchema(*pair->source())};
    PendingSection target{kPairTargetSchema, owner,
                          SerializeSchema(*pair->target())};
    PendingSection matching{kPairMatching, owner,
                            SerializeMatching(pair->matching)};
    sections.push_back(std::move(source));
    sections.push_back(std::move(target));
    sections.push_back(std::move(matching));

    PendingSection table_meta;
    table_meta.kind = kPairTableMeta;
    table_meta.owner = owner;
    AppendU32(&table_meta.payload, flat.mappings.num_mappings);
    AppendU32(&table_meta.payload, flat.mappings.num_targets);
    sections.push_back(std::move(table_meta));

    sections.push_back(
        ArraySection(kPairMapSourceFor, owner, flat.mappings.source_for));
    sections.push_back(
        ArraySection(kPairMapProbability, owner, flat.mappings.probability));
    sections.push_back(ArraySection(kPairTreeNodeBlockBegin, owner,
                                    flat.tree.node_block_begin));
    sections.push_back(
        ArraySection(kPairTreeSelfAnchored, owner, flat.tree.self_anchored));
    sections.push_back(
        ArraySection(kPairTreeCorrBegin, owner, flat.tree.corr_begin));
    sections.push_back(
        ArraySection(kPairTreeMapBegin, owner, flat.tree.map_begin));
    sections.push_back(
        ArraySection(kPairTreeCorrTarget, owner, flat.tree.corr_target));
    sections.push_back(
        ArraySection(kPairTreeCorrSource, owner, flat.tree.corr_source));
    sections.push_back(ArraySection(kPairTreeBlockMappings, owner,
                                    flat.tree.block_mappings));
    sections.push_back(ArraySection(
        kPairOrderByProbability, owner,
        ConstSpan<MappingId>(pair->order->by_probability.data(),
                             pair->order->by_probability.size())));
    sections.push_back(ArraySection(
        kPairOrderResidual, owner,
        ConstSpan<double>(pair->order->residual_after.data(),
                          pair->order->residual_after.size())));
  }

  for (size_t i = 0; i < input.documents.size(); ++i) {
    const SnapshotDocInput& doc = input.documents[i];
    const auto owner = static_cast<uint32_t>(i);
    if (doc.doc == nullptr || doc.annotated == nullptr) {
      return Status::InvalidArgument("document " + std::to_string(i) +
                                     " has null doc/annotation");
    }
    if (doc.name.empty()) {
      // The loader (and the corpus store) reject empty names; refuse to
      // emit a file that can never load.
      return Status::InvalidArgument("document " + std::to_string(i) +
                                     " has an empty name");
    }
    if (doc.pair_index >= input.pairs.size()) {
      return Status::InvalidArgument("document '" + doc.name +
                                     "' references pair index " +
                                     std::to_string(doc.pair_index) +
                                     " out of range");
    }

    PendingSection meta;
    meta.kind = kDocMeta;
    meta.owner = owner;
    AppendU32(&meta.payload, doc.pair_index);
    AppendString(&meta.payload, doc.name);
    sections.push_back(std::move(meta));

    PendingSection nodes{kDocNodes, owner, SerializeDocNodes(*doc.doc)};
    sections.push_back(std::move(nodes));

    PendingSection elements;
    elements.kind = kDocElements;
    elements.owner = owner;
    for (DocNodeId n = 0; n < doc.doc->size(); ++n) {
      AppendI32(&elements.payload, doc.annotated->ElementOf(n));
    }
    sections.push_back(std::move(elements));
  }

  // Layout: header, directory, then sections at 64-byte boundaries. The
  // file ends at the last payload's end rounded up to the alignment —
  // shrink-to-fit, nothing preallocated.
  SnapshotHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.version = kSnapshotVersion;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.directory_offset = sizeof(SnapshotHeader);

  std::vector<SectionEntry> directory(sections.size());
  uint64_t cursor = sizeof(SnapshotHeader) +
                    static_cast<uint64_t>(sections.size()) *
                        sizeof(SectionEntry);
  for (size_t i = 0; i < sections.size(); ++i) {
    cursor = AlignSnapshotOffset(cursor);
    SectionEntry& entry = directory[i];
    entry.kind = sections[i].kind;
    entry.owner = sections[i].owner;
    entry.offset = cursor;
    entry.length = sections[i].payload.size();
    entry.checksum =
        Fnv1a64(sections[i].payload.data(), sections[i].payload.size());
    entry.reserved = 0;
    cursor += entry.length;
  }
  header.file_size = AlignSnapshotOffset(cursor);
  header.directory_checksum =
      Fnv1a64(directory.data(), directory.size() * sizeof(SectionEntry));

  // A unique temp name per write (mkstemp in the target directory, so
  // the rename below never crosses a filesystem) keeps concurrent
  // writers to the same path from interleaving into one temp file.
  std::string tmp_path = path + ".tmp.XXXXXX";
  int fd = ::mkstemp(tmp_path.data());
  if (fd < 0) {
    const int err = errno;
    return Status::IOError("cannot create temp file for '" + path +
                           "': " + std::strerror(err));
  }
  ::fchmod(fd, 0644);  // mkstemp's 0600 is stingier than a plain create
  const auto fail = [&](const std::string& what) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    std::remove(tmp_path.c_str());
    return Status::IOError(what + " '" + tmp_path +
                           "' failed: " + std::strerror(err));
  };
  uint64_t at = 0;
  const auto write_bytes = [&](const void* data, size_t len) -> bool {
    const char* p = static_cast<const char*>(data);
    size_t left = len;
    while (left > 0) {
      const ssize_t n = ::write(fd, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    at += len;
    return true;
  };
  const auto pad_to = [&](uint64_t offset) -> bool {
    static const char zeros[kSnapshotAlignment] = {};
    while (at < offset) {
      const uint64_t n = std::min<uint64_t>(offset - at, sizeof(zeros));
      if (!write_bytes(zeros, n)) return false;
    }
    return true;
  };
  bool ok = write_bytes(&header, sizeof(header)) &&
            write_bytes(directory.data(),
                        directory.size() * sizeof(SectionEntry));
  for (size_t i = 0; ok && i < sections.size(); ++i) {
    ok = pad_to(directory[i].offset) &&
         write_bytes(sections[i].payload.data(), sections[i].payload.size());
  }
  ok = ok && pad_to(header.file_size);
  if (!ok) return fail("write to");
  // Flush the data to stable storage before the rename: rename is atomic
  // in the namespace but unordered against writeback, so a crash could
  // otherwise land an empty file over a previously good snapshot.
  if (::fsync(fd) != 0) return fail("fsync of");
  if (::close(fd) != 0) {
    fd = -1;
    return fail("close of");
  }
  fd = -1;
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp_path.c_str());
    return Status::IOError("rename '" + tmp_path + "' -> '" + path +
                           "' failed: " + std::strerror(err));
  }
  {
    // Persist the rename itself: without a directory fsync the new
    // directory entry can be lost in a crash even though the data is on
    // disk.
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos
            ? std::string(".")
            : (slash == 0 ? std::string("/") : path.substr(0, slash));
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0 || ::fsync(dfd) != 0) {
      const int err = errno;
      if (dfd >= 0) ::close(dfd);
      return Status::IOError("fsync of directory '" + dir +
                             "' failed: " + std::strerror(err));
    }
    ::close(dfd);
  }

  SnapshotWriteResult result;
  result.file_bytes = header.file_size;
  result.sections = sections.size();
  return result;
}

}  // namespace uxm
