#include "cache/item_key.h"

namespace uxm {

namespace {

/// Boost-style hash combiner.
inline size_t Combine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t ItemKeyRef::Hash() const {
  size_t h = twig_hash;
  h = Combine(h, std::hash<const void*>()(doc));
  h = Combine(h, std::hash<uint64_t>()(epoch));
  h = Combine(h, std::hash<int>()(top_k));
  h = Combine(h, std::hash<bool>()(block_tree));
  h = Combine(h, std::hash<uint64_t>()(pair));
  return h;
}

}  // namespace uxm
