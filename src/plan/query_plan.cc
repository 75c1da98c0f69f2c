#include "plan/query_plan.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "query/annotated_document.h"
#include "query/ptq.h"

namespace uxm {

MappingOrder MappingOrder::Build(const PossibleMappingSet& mappings) {
  MappingOrder order;
  const int n = mappings.size();
  order.by_probability.resize(static_cast<size_t>(n));
  for (MappingId mid = 0; mid < n; ++mid) {
    order.by_probability[static_cast<size_t>(mid)] = mid;
  }
  // Stable over the ascending-id identity order, so equal probabilities
  // rank by ascending id — the same tie-break FilterRelevantMappings
  // produces (it shares this exact sort).
  SortByProbabilityDescending(mappings, &order.by_probability);
  order.residual_after.assign(static_cast<size_t>(n), 0.0);
  double mass = 0.0;
  for (int i = n - 1; i >= 0; --i) {
    order.residual_after[static_cast<size_t>(i)] = mass;
    mass += mappings.mapping(order.by_probability[static_cast<size_t>(i)])
                .probability;
  }
  return order;
}

MappingOrder MappingOrder::Build(const FlatMappingTable& table) {
  MappingOrder order;
  const size_t n = table.num_mappings;
  order.by_probability.resize(n);
  for (size_t mid = 0; mid < n; ++mid) {
    order.by_probability[mid] = static_cast<MappingId>(mid);
  }
  // Same stable descending sort as the PossibleMappingSet overload, over
  // the same probability doubles — identical order, identical residuals.
  std::stable_sort(order.by_probability.begin(), order.by_probability.end(),
                   [&](MappingId a, MappingId b) {
                     return table.probability[static_cast<size_t>(a)] >
                            table.probability[static_cast<size_t>(b)];
                   });
  order.residual_after.assign(n, 0.0);
  double mass = 0.0;
  for (size_t i = n; i-- > 0;) {
    order.residual_after[i] = mass;
    mass += table.probability[static_cast<size_t>(order.by_probability[i])];
  }
  return order;
}

QueryPlan::QueryPlan(const FlatMappingTable* table,
                     std::shared_ptr<const MappingOrder> order,
                     TwigQuery query,
                     std::shared_ptr<const QueryEmbeddings> embeddings)
    : table_(table),
      order_(std::move(order)),
      query_(std::move(query)),
      embeddings_(std::move(embeddings)) {
  const size_t n = table_->num_mappings;
  memo_ = std::make_unique<std::atomic<uint8_t>[]>(n);
  for (size_t i = 0; i < n; ++i) {
    memo_[i].store(0, std::memory_order_relaxed);
  }
}

bool QueryPlan::ComputeRelevance(MappingId mid) const {
  relevance_checks_.fetch_add(1, std::memory_order_relaxed);
  // Shared predicate: exact agreement with FilterRelevantMappings is
  // what makes the early-terminated selection exact (see IsRowRelevant).
  return IsRowRelevant(*table_, mid, embeddings_->assignments);
}

bool QueryPlan::IsRelevant(MappingId mid) const {
  std::atomic<uint8_t>& slot = memo_[static_cast<size_t>(mid)];
  const uint8_t cached = slot.load(std::memory_order_acquire);
  if (cached != 0) return cached == 2;
  const bool relevant = ComputeRelevance(mid);
  slot.store(relevant ? 2 : 1, std::memory_order_release);
  return relevant;
}

const std::vector<MappingId>& QueryPlan::AllRelevant() const {
  std::call_once(all_relevant_once_, [this]() {
    const int n = static_cast<int>(table_->num_mappings);
    for (MappingId mid = 0; mid < n; ++mid) {
      if (IsRelevant(mid)) all_relevant_.push_back(mid);
    }
  });
  return all_relevant_;
}

std::vector<MappingId> QueryPlan::SelectForTopK(int top_k,
                                                PlanSelectStats* stats) const {
  if (stats != nullptr) *stats = PlanSelectStats{};
  const int n = static_cast<int>(table_->num_mappings);
  if (top_k <= 0) {
    const std::vector<MappingId>& all = AllRelevant();
    if (stats != nullptr) {
      stats->selected = static_cast<int>(all.size());
      stats->scanned = n;
    }
    return all;
  }
  // Consume work units most-probable-first; every unit left unconsumed
  // when k relevant mappings are in hand has probability no larger than
  // the last consumed unit's (and the whole tail at most residual_after
  // mass), so it provably cannot belong to the top-k relevant set.
  std::vector<MappingId> selected;
  selected.reserve(static_cast<size_t>(top_k));
  int scanned = 0;
  double residual = 0.0;
  for (size_t i = 0; i < order_->by_probability.size(); ++i) {
    const MappingId mid = order_->by_probability[i];
    ++scanned;
    if (!IsRelevant(mid)) continue;
    selected.push_back(mid);
    if (static_cast<int>(selected.size()) == top_k) {
      residual = order_->residual_after[i];
      break;
    }
  }
  if (stats != nullptr) {
    stats->selected = static_cast<int>(selected.size());
    stats->scanned = scanned;
    stats->skipped = n - scanned;
    stats->residual_mass = residual;
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

double QueryPlan::AnswerUpperBound(int top_k) const {
  // An answer's probability is a sum of probabilities of selected
  // relevant mappings, so the mass of the whole selection bounds any
  // single answer. For top_k <= 0 that is the full relevant mass; for
  // top_k > 0 the mass of the k most probable relevant mappings — found
  // by walking the shared work-unit order exactly as SelectForTopK does
  // (the relevance memo makes repeated bound computations one atomic
  // load per unit). A twig with no embeddings has no relevant mappings
  // and bound 0: it cannot answer anything for any document of the pair.
  if (embeddings_->assignments.empty()) return 0.0;
  if (top_k <= 0) {
    double mass = 0.0;
    for (const MappingId mid : AllRelevant()) {
      mass += table_->probability[static_cast<size_t>(mid)];
    }
    return mass;
  }
  double mass = 0.0;
  int found = 0;
  for (size_t i = 0; i < order_->by_probability.size(); ++i) {
    const MappingId mid = order_->by_probability[i];
    if (!IsRelevant(mid)) continue;
    mass += table_->probability[static_cast<size_t>(mid)];
    if (++found == top_k) break;
  }
  return mass;
}

/// A document probe compiled for one top_k. Every array is flat and read
/// front to back by DocumentAnswerUpperBound. A plan cache holds
/// thousands of plans, so the probe stores nothing per prefix mapping
/// unless the prefix has more than one conjunction set.
struct QueryPlan::DocumentProbe {
  int top_k = 0;  ///< normalized: every top_k <= 0 is stored as 0
  const DocumentProbe* next = nullptr;  ///< the next (older) list entry
  /// The selection prefix's whole mass, summed in prefix order: the bound
  /// when every prefix mapping may match.
  double all_mass = 0.0;
  /// The distinct (query node << 32 | source element) atoms, ascending.
  std::vector<uint64_t> atoms;
  /// The distinct embedding conjunctions: conjunction c holds iff every
  /// atom of conj_atoms[c * width, (c + 1) * width) — one per query node
  /// — has a satisfying instance.
  std::vector<uint32_t> conj_atoms;
  /// The distinct conjunction sets: set s may match iff some conjunction
  /// of set_conjs[set_begin[s], set_begin[s + 1]) holds.
  std::vector<uint32_t> set_begin;
  std::vector<uint32_t> set_conjs;
  /// Each prefix mapping's set id, in prefix order; empty when there is
  /// only one set.
  std::vector<uint32_t> prefix_set;
};

QueryPlan::~QueryPlan() {
  const DocumentProbe* probe = probes_.load(std::memory_order_acquire);
  while (probe != nullptr) {
    const DocumentProbe* next = probe->next;
    delete probe;
    probe = next;
  }
}

std::unique_ptr<QueryPlan::DocumentProbe> QueryPlan::CompileProbe(
    int top_k) const {
  auto probe = std::make_unique<DocumentProbe>();
  probe->top_k = top_k;
  const std::vector<std::vector<SchemaNodeId>>& assignments =
      embeddings_->assignments;
  const size_t width = static_cast<size_t>(query_.size());
  // Walk the selection prefix AnswerUpperBound walks and collect each
  // mapping's embeddings as `width` (node << 32 | source element) keys.
  // An embedding that leaves some query node unmapped can never match,
  // so it is dropped here. conj_end[m] counts the conjunctions kept up
  // to and including prefix mapping m.
  std::vector<uint64_t> keys;
  std::vector<uint32_t> conj_end;
  uint32_t num_raw = 0;
  double all_mass = 0.0;
  int found = 0;
  // A twig with no embeddings has no relevant mapping: an empty prefix.
  const size_t units =
      assignments.empty() ? 0 : order_->by_probability.size();
  for (size_t i = 0; i < units; ++i) {
    const MappingId mid = order_->by_probability[i];
    if (!IsRelevant(mid)) continue;
    const SchemaNodeId* row = table_->Row(mid);
    for (const std::vector<SchemaNodeId>& emb : assignments) {
      const size_t start = keys.size();
      for (size_t q = 0; q < width; ++q) {
        const SchemaNodeId t = emb[q];
        const SchemaNodeId src =
            t == kInvalidSchemaNode ? kInvalidSchemaNode : row[t];
        if (src == kInvalidSchemaNode) break;
        keys.push_back(static_cast<uint64_t>(q) << 32 |
                       static_cast<uint32_t>(src));
      }
      if (keys.size() == start + width) {
        ++num_raw;
      } else {
        keys.resize(start);
      }
    }
    conj_end.push_back(num_raw);
    all_mass += table_->probability[static_cast<size_t>(mid)];
    if (top_k > 0 && ++found == top_k) break;
  }
  probe->all_mass = all_mass;

  // Atoms: the distinct keys; every key becomes its atom id.
  std::vector<uint64_t>& atoms = probe->atoms;
  atoms = keys;
  std::sort(atoms.begin(), atoms.end());
  atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
  atoms.shrink_to_fit();
  std::vector<uint32_t> raw_atoms(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    raw_atoms[i] = static_cast<uint32_t>(
        std::lower_bound(atoms.begin(), atoms.end(), keys[i]) - atoms.begin());
  }

  // Conjunctions: the distinct atom tuples; conj_id maps each kept
  // embedding to its conjunction.
  auto conj_less = [&](uint32_t a, uint32_t b) {
    const uint32_t* pa = raw_atoms.data() + a * width;
    const uint32_t* pb = raw_atoms.data() + b * width;
    return std::lexicographical_compare(pa, pa + width, pb, pb + width);
  };
  std::vector<uint32_t> by_conj(num_raw);
  std::iota(by_conj.begin(), by_conj.end(), 0u);
  std::sort(by_conj.begin(), by_conj.end(), conj_less);
  std::vector<uint32_t> conj_id(num_raw);
  uint32_t num_conjs = 0;
  for (size_t i = 0; i < by_conj.size(); ++i) {
    const uint32_t raw = by_conj[i];
    if (i == 0 || conj_less(by_conj[i - 1], raw)) {
      const uint32_t* first = raw_atoms.data() + raw * width;
      probe->conj_atoms.insert(probe->conj_atoms.end(), first, first + width);
      ++num_conjs;
    }
    conj_id[raw] = num_conjs - 1;
  }

  // Conjunction sets: each prefix mapping's sorted distinct conjunction
  // ids, then the distinct sets among them.
  const size_t num_prefix = conj_end.size();
  std::vector<uint32_t> members;
  std::vector<uint32_t> member_begin(num_prefix + 1, 0);
  for (size_t m = 0; m < num_prefix; ++m) {
    const size_t first = members.size();
    for (uint32_t r = m == 0 ? 0 : conj_end[m - 1]; r < conj_end[m]; ++r) {
      members.push_back(conj_id[r]);
    }
    std::sort(members.begin() + first, members.end());
    members.erase(std::unique(members.begin() + first, members.end()),
                  members.end());
    member_begin[m + 1] = static_cast<uint32_t>(members.size());
  }
  auto set_less = [&](uint32_t a, uint32_t b) {
    const auto first = members.begin();
    return std::lexicographical_compare(
        first + member_begin[a], first + member_begin[a + 1],
        first + member_begin[b], first + member_begin[b + 1]);
  };
  std::vector<uint32_t> by_set(num_prefix);
  std::iota(by_set.begin(), by_set.end(), 0u);
  std::sort(by_set.begin(), by_set.end(), set_less);
  std::vector<uint32_t> prefix_set(num_prefix);
  probe->set_begin.push_back(0);
  for (size_t i = 0; i < by_set.size(); ++i) {
    const uint32_t m = by_set[i];
    if (i == 0 || set_less(by_set[i - 1], m)) {
      probe->set_conjs.insert(probe->set_conjs.end(),
                              members.begin() + member_begin[m],
                              members.begin() + member_begin[m + 1]);
      probe->set_begin.push_back(
          static_cast<uint32_t>(probe->set_conjs.size()));
    }
    prefix_set[m] = static_cast<uint32_t>(probe->set_begin.size() - 2);
  }
  if (probe->set_begin.size() > 2) probe->prefix_set = std::move(prefix_set);
  probe->conj_atoms.shrink_to_fit();
  probe->set_begin.shrink_to_fit();
  probe->set_conjs.shrink_to_fit();
  return probe;
}

const QueryPlan::DocumentProbe& QueryPlan::ProbeFor(int top_k) const {
  top_k = std::max(top_k, 0);
  auto find = [&]() -> const DocumentProbe* {
    for (const DocumentProbe* p = probes_.load(std::memory_order_acquire);
         p != nullptr; p = p->next) {
      if (p->top_k == top_k) return p;
    }
    return nullptr;
  };
  if (const DocumentProbe* probe = find()) return *probe;
  std::lock_guard<std::mutex> lock(probe_mu_);
  if (const DocumentProbe* probe = find()) return *probe;
  std::unique_ptr<DocumentProbe> probe = CompileProbe(top_k);
  probe->next = probes_.load(std::memory_order_relaxed);
  const DocumentProbe* published = probe.release();
  probes_.store(published, std::memory_order_release);
  return *published;
}

double QueryPlan::DocumentAnswerUpperBound(
    int top_k, const AnnotatedDocument& doc) const {
  const DocumentProbe& probe = ProbeFor(top_k);
  const size_t width = static_cast<size_t>(query_.size());
  const size_t num_atoms = probe.atoms.size();
  const size_t num_sets = probe.set_begin.size() - 1;
  // Scratch: one state per atom (0 unchecked, 1 absent, 2 present), then
  // one may-match flag per conjunction set. Only probes with hundreds of
  // atoms spill to the heap.
  constexpr size_t kStackScratch = 256;
  uint8_t stack_scratch[kStackScratch];
  std::unique_ptr<uint8_t[]> heap_scratch;
  uint8_t* atom_state = stack_scratch;
  if (num_atoms + num_sets > kStackScratch) {
    heap_scratch = std::make_unique<uint8_t[]>(num_atoms + num_sets);
    atom_state = heap_scratch.get();
  }
  std::fill_n(atom_state, num_atoms, uint8_t{0});
  uint8_t* set_may = atom_state + num_atoms;
  // An atom holds iff its source element has an instance in the
  // document satisfying its query node's value predicate.
  auto holds = [&](uint32_t a) {
    uint8_t& state = atom_state[a];
    if (state == 0) {
      const uint64_t atom = probe.atoms[a];
      const std::vector<DocNodeId>& inst = doc.InstancesOf(
          static_cast<SchemaNodeId>(static_cast<uint32_t>(atom)));
      const TwigNode& qn = query_.node(static_cast<int>(atom >> 32));
      bool found = !inst.empty();
      if (found && qn.value_eq.has_value()) {
        const Document& d = doc.doc();
        found = std::any_of(inst.begin(), inst.end(), [&](DocNodeId n) {
          return d.text(n) == *qn.value_eq;
        });
      }
      state = found ? 2 : 1;
    }
    return state == 2;
  };
  // A mapping may produce an output only if SOME embedding binds every
  // query node to a source element with a satisfying instance: an
  // unmapped node or an empty candidate list empties that node's
  // satisfaction set, and the kernels' child-containment joins carry the
  // emptiness to the root.
  size_t may_sets = 0;
  for (size_t s = 0; s < num_sets; ++s) {
    set_may[s] = 0;
    for (uint32_t i = probe.set_begin[s]; i < probe.set_begin[s + 1]; ++i) {
      const uint32_t* first =
          probe.conj_atoms.data() + probe.set_conjs[i] * width;
      if (std::all_of(first, first + width, holds)) {
        set_may[s] = 1;
        ++may_sets;
        break;
      }
    }
  }
  if (may_sets == 0) return kProvenEmptyBound;
  if (may_sets == num_sets) return probe.all_mass;
  // Some sets may match and some may not: walk the selection prefix
  // AnswerUpperBound walks (the relevance memo is warm, one atomic load
  // per unit) and sum the may-match mappings in prefix order.
  double mass = 0.0;
  size_t j = 0;
  for (size_t i = 0; j < probe.prefix_set.size(); ++i) {
    const MappingId mid = order_->by_probability[i];
    if (!IsRelevant(mid)) continue;
    if (set_may[probe.prefix_set[j++]] != 0) {
      mass += table_->probability[static_cast<size_t>(mid)];
    }
  }
  return mass;
}

}  // namespace uxm
