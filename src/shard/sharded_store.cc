#include "shard/sharded_store.h"

#include <algorithm>
#include <utility>

#include "common/checksum.h"

namespace uxm {

namespace {

bool NameBelow(const CorpusDocument& entry, const std::string& name) {
  return entry.name < name;
}

Status CheckEntry(const CorpusDocument& entry) {
  if (entry.name.empty()) {
    return Status::InvalidArgument("corpus document name must be non-empty");
  }
  if (entry.doc == nullptr || entry.annotated == nullptr) {
    return Status::InvalidArgument(
        "corpus document needs a document and its annotation");
  }
  if (entry.pair == nullptr) {
    return Status::InvalidArgument(
        "corpus document needs the prepared pair it is queried under");
  }
  return Status::OK();
}

}  // namespace

int DefaultShardCount() { return 1; }

size_t ShardForDocument(const std::string& name, size_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<size_t>(Fnv1a64(name.data(), name.size())) % num_shards;
}

ShardedDocumentStore::ShardedDocumentStore(int num_shards)
    : num_shards_(static_cast<size_t>(num_shards > 0 ? num_shards
                                                     : DefaultShardCount())) {
  Publish(CorpusSnapshot{});
}

void ShardedDocumentStore::Publish(CorpusSnapshot all,
                                   const std::string* changed) {
  auto next = std::make_shared<ShardedCorpusSnapshot>();
  next->all = std::make_shared<const CorpusSnapshot>(std::move(all));
  if (num_shards_ == 1) {
    next->shards.push_back(next->all);
  } else if (changed != nullptr) {
    // One name came or went: only its shard's view changes. The other
    // views are shared with the live snapshot, and the changed one is
    // the live view with the same one-entry edit (both stay name-sorted).
    next->shards = snapshot_->shards;
    std::shared_ptr<const CorpusSnapshot>& slot =
        next->shards[ShardOf(*changed)];
    const CorpusSnapshot& old_view = *slot;
    auto at = std::lower_bound(old_view.begin(), old_view.end(), *changed,
                               NameBelow);
    CorpusSnapshot view;
    view.reserve(old_view.size() + 1);
    view.insert(view.end(), old_view.begin(), at);
    if (at != old_view.end() && at->name == *changed) {
      ++at;  // removed
    } else {
      view.push_back(*std::lower_bound(next->all->begin(), next->all->end(),
                                       *changed, NameBelow));  // added
    }
    view.insert(view.end(), at, old_view.end());
    slot = std::make_shared<const CorpusSnapshot>(std::move(view));
  } else {
    // A stable partition of the sorted view keeps every shard view
    // name-sorted too.
    std::vector<CorpusSnapshot> views(num_shards_);
    for (const CorpusDocument& entry : *next->all) {
      views[ShardOf(entry.name)].push_back(entry);
    }
    next->shards.reserve(num_shards_);
    for (CorpusSnapshot& view : views) {
      next->shards.push_back(
          std::make_shared<const CorpusSnapshot>(std::move(view)));
    }
  }
  snapshot_ = std::move(next);
}

Status ShardedDocumentStore::Add(CorpusDocument entry) {
  std::vector<CorpusDocument> entries;
  entries.push_back(std::move(entry));
  return AddAll(std::move(entries));
}

Status ShardedDocumentStore::AddAll(std::vector<CorpusDocument> entries) {
  for (const CorpusDocument& entry : entries) {
    UXM_RETURN_NOT_OK(CheckEntry(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const CorpusDocument& a, const CorpusDocument& b) {
              return a.name < b.name;
            });
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].name == entries[i].name) {
      return Status::AlreadyExists("corpus registration names document '" +
                                   entries[i].name + "' twice");
    }
  }
  // A one-entry registration republishes only its shard's view.
  const std::string single = entries.size() == 1 ? entries[0].name : "";
  std::lock_guard<std::mutex> lock(mu_);
  // One pass over the live view: each (sorted) new entry bisects the
  // rest of it, and the gaps between insertion points are copied once.
  const CorpusSnapshot& live = *snapshot_->all;
  CorpusSnapshot next;
  next.reserve(live.size() + entries.size());
  auto cursor = live.begin();
  for (CorpusDocument& entry : entries) {
    const auto at = std::lower_bound(cursor, live.end(), entry.name, NameBelow);
    if (at != live.end() && at->name == entry.name) {
      return Status::AlreadyExists("corpus already has a document named '" +
                                   entry.name + "'");
    }
    next.insert(next.end(), cursor, at);
    next.push_back(std::move(entry));
    cursor = at;
  }
  next.insert(next.end(), cursor, live.end());
  Publish(std::move(next), single.empty() ? nullptr : &single);
  return Status::OK();
}

Status ShardedDocumentStore::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const CorpusSnapshot& live = *snapshot_->all;
  const auto at = std::lower_bound(live.begin(), live.end(), name, NameBelow);
  if (at == live.end() || at->name != name) {
    return Status::NotFound("no corpus document named '" + name + "'");
  }
  CorpusSnapshot next;
  next.reserve(live.size() - 1);
  next.insert(next.end(), live.begin(), at);
  next.insert(next.end(), at + 1, live.end());
  Publish(std::move(next), &name);
  return Status::OK();
}

int ShardedDocumentStore::RebindPair(
    const std::shared_ptr<const PreparedSchemaPair>& pair, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  CorpusSnapshot next = *snapshot_->all;
  int rebound = 0;
  for (CorpusDocument& entry : next) {
    if (entry.pair->source() != pair->source() ||
        entry.pair->target() != pair->target()) {
      continue;
    }
    entry.pair = pair;
    entry.epoch = epoch;
    ++rebound;
  }
  if (rebound > 0) Publish(std::move(next));
  return rebound;
}

int ShardedDocumentStore::RemovePairDocuments(const Schema* source,
                                              const Schema* target) {
  std::lock_guard<std::mutex> lock(mu_);
  const CorpusSnapshot& live = *snapshot_->all;
  CorpusSnapshot next;
  next.reserve(live.size());
  for (const CorpusDocument& entry : live) {
    if (entry.pair->source() != source || entry.pair->target() != target) {
      next.push_back(entry);
    }
  }
  const int dropped = static_cast<int>(live.size() - next.size());
  if (dropped > 0) Publish(std::move(next));
  return dropped;
}

void ShardedDocumentStore::Restamp(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  CorpusSnapshot next = *snapshot_->all;
  for (CorpusDocument& entry : next) entry.epoch = epoch;
  Publish(std::move(next));
}

void ShardedDocumentStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  Publish(CorpusSnapshot{});
}

std::shared_ptr<const ShardedCorpusSnapshot> ShardedDocumentStore::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

size_t ShardedDocumentStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_->all->size();
}

std::vector<std::string> ShardedDocumentStore::Names() const {
  std::shared_ptr<const ShardedCorpusSnapshot> snapshot = Snapshot();
  std::vector<std::string> names;
  names.reserve(snapshot->all->size());
  for (const CorpusDocument& entry : *snapshot->all) {
    names.push_back(entry.name);
  }
  return names;
}

}  // namespace uxm
