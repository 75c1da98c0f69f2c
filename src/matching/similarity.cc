#include "matching/similarity.h"

#include <algorithm>

#include "common/string_util.h"

namespace uxm {

namespace {

/// |a ∩ b| for two sorted, duplicate-free arrays.
size_t SortedIntersectionSize(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b) {
  size_t common = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

}  // namespace

int LevenshteinDistance(std::string_view a, std::string_view b,
                        std::vector<int>* scratch) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  std::vector<int> local;
  if (scratch == nullptr) scratch = &local;
  scratch->resize(2 * (m + 1));
  int* prev = scratch->data();
  int* cur = prev + (m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b,
                             std::vector<int>* scratch) {
  if (a.empty() && b.empty()) return 1.0;
  const int dist = LevenshteinDistance(a, b, scratch);
  const double denom = static_cast<double>(std::max(a.size(), b.size()));
  return 1.0 - static_cast<double>(dist) / denom;
}

Trigrams MakeTrigrams(std::string_view name) {
  Trigrams t;
  t.lower = ToLower(name);
  const std::string& s = t.lower;
  const auto byte = [&s](size_t i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(s[i]));
  };
  for (size_t i = 0; i + 3 <= s.size(); ++i) {
    t.codes.push_back(byte(i) << 16 | byte(i + 1) << 8 | byte(i + 2));
  }
  SortUnique(&t.codes);
  return t;
}

double TrigramSimilarity(const Trigrams& ta, const Trigrams& tb) {
  const std::string& a = ta.lower;
  const std::string& b = tb.lower;
  if (a.size() < 3 || b.size() < 3) {
    if (a == b) return 1.0;
    if (!a.empty() && !b.empty() &&
        (a.find(b) != std::string::npos || b.find(a) != std::string::npos)) {
      return 0.5;
    }
    return 0.0;
  }
  const size_t common = SortedIntersectionSize(ta.codes, tb.codes);
  return 2.0 * static_cast<double>(common) /
         static_cast<double>(ta.codes.size() + tb.codes.size());
}

double TrigramSimilarity(std::string_view a, std::string_view b) {
  return TrigramSimilarity(MakeTrigrams(a), MakeTrigrams(b));
}

void Thesaurus::AddSynonymGroup(const std::vector<std::string>& group) {
  if (group.empty()) return;
  // If any member already has a group, merge into that group id; otherwise
  // allocate a fresh one. (Groups in practice are declared disjoint.)
  int gid = -1;
  for (const std::string& w : group) {
    auto it = group_of_.find(ToLower(w));
    if (it != group_of_.end()) {
      gid = it->second;
      break;
    }
  }
  if (gid < 0) {
    gid = static_cast<int>(representative_.size());
    representative_.push_back(ToLower(group.front()));
  }
  for (const std::string& w : group) group_of_[ToLower(w)] = gid;
}

bool Thesaurus::AreSynonyms(std::string_view a, std::string_view b) const {
  const std::string la = ToLower(a);
  const std::string lb = ToLower(b);
  if (la == lb) return true;
  auto ia = group_of_.find(la);
  auto ib = group_of_.find(lb);
  return ia != group_of_.end() && ib != group_of_.end() &&
         ia->second == ib->second;
}

std::string Thesaurus::Canonical(std::string_view word) const {
  const std::string lw = ToLower(word);
  auto it = group_of_.find(lw);
  if (it == group_of_.end()) return lw;
  return representative_[static_cast<size_t>(it->second)];
}

Thesaurus Thesaurus::CommerceDefault() {
  Thesaurus t;
  t.AddSynonymGroup({"buyer", "purchaser", "customer"});
  t.AddSynonymGroup({"supplier", "seller", "vendor"});
  t.AddSynonymGroup({"order", "po", "purchaseorder"});
  t.AddSynonymGroup({"item", "line", "article", "position", "detail"});
  t.AddSynonymGroup({"price", "pricing", "amount", "cost"});
  t.AddSynonymGroup({"quantity", "qty", "count"});
  t.AddSynonymGroup({"id", "identifier", "number", "no", "num", "code"});
  t.AddSynonymGroup({"name", "label", "title"});
  t.AddSynonymGroup({"address", "addr", "location"});
  t.AddSynonymGroup({"phone", "telephone", "tel"});
  t.AddSynonymGroup({"email", "mail", "emailaddress"});
  t.AddSynonymGroup({"zip", "postal", "postcode", "zipcode"});
  t.AddSynonymGroup({"country", "nation"});
  t.AddSynonymGroup({"city", "town"});
  t.AddSynonymGroup({"street", "road"});
  t.AddSynonymGroup({"contact", "person"});
  t.AddSynonymGroup({"date", "time", "datetime"});
  t.AddSynonymGroup({"delivery", "deliver", "shipping", "ship", "shipment",
                     "shipto", "receiving", "dispatch"});
  t.AddSynonymGroup({"invoice", "bill", "billing"});
  t.AddSynonymGroup({"party", "partner", "organization", "org", "company"});
  t.AddSynonymGroup({"currency", "curr"});
  t.AddSynonymGroup({"tax", "vat", "duty"});
  t.AddSynonymGroup({"total", "sum", "subtotal"});
  t.AddSynonymGroup({"description", "desc", "remark", "note", "comment"});
  t.AddSynonymGroup({"unit", "uom", "measure"});
  t.AddSynonymGroup({"reference", "ref"});
  t.AddSynonymGroup({"header", "head"});
  t.AddSynonymGroup({"body", "content"});
  t.AddSynonymGroup({"fax", "facsimile"});
  t.AddSynonymGroup({"region", "state", "province"});
  return t;
}

uint32_t TokenInterner::Intern(std::string_view token) {
  return ids_.emplace(std::string(token), static_cast<uint32_t>(ids_.size()))
      .first->second;
}

void SortUnique(std::vector<uint32_t>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

double TokenSetSimilarity(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t common = SortedIntersectionSize(a, b);
  const size_t uni = a.size() + b.size() - common;
  // Blend Jaccard with the overlap coefficient so that containment
  // ("POLine" ⊃ "Line") is rewarded: element names in B2B standards are
  // frequently qualified supersets of each other.
  const double jaccard =
      static_cast<double>(common) / static_cast<double>(uni);
  const double overlap = static_cast<double>(common) /
                         static_cast<double>(std::min(a.size(), b.size()));
  return 0.65 * jaccard + 0.35 * overlap;
}

double TokenSetSimilarity(const std::vector<std::string>& a,
                          const std::vector<std::string>& b,
                          const Thesaurus& thesaurus) {
  TokenInterner interner;
  auto ids = [&](const std::vector<std::string>& words) {
    std::vector<uint32_t> out;
    out.reserve(words.size());
    for (const auto& w : words) {
      out.push_back(interner.Intern(thesaurus.Canonical(w)));
    }
    SortUnique(&out);
    return out;
  };
  const std::vector<uint32_t> ia = ids(a);
  return TokenSetSimilarity(ia, ids(b));
}

NameFeatures MakeNameFeatures(std::string_view name,
                              const Thesaurus& thesaurus,
                              TokenInterner* interner) {
  NameFeatures f;
  for (const std::string& tok : TokenizeName(name)) {
    f.tokens.push_back(interner->Intern(thesaurus.Canonical(tok)));
  }
  SortUnique(&f.tokens);
  f.grams = MakeTrigrams(name);
  return f;
}

double NameSimilarity(const NameFeatures& a, const NameFeatures& b,
                      std::vector<int>* scratch) {
  const double token = TokenSetSimilarity(a.tokens, b.tokens);
  const double tri = TrigramSimilarity(a.grams, b.grams);
  const double lev =
      LevenshteinSimilarity(a.grams.lower, b.grams.lower, scratch);
  return 0.55 * token + 0.25 * tri + 0.20 * lev;
}

double NameSimilarity(std::string_view a, std::string_view b,
                      const Thesaurus& thesaurus) {
  TokenInterner interner;
  const NameFeatures fa = MakeNameFeatures(a, thesaurus, &interner);
  const NameFeatures fb = MakeNameFeatures(b, thesaurus, &interner);
  return NameSimilarity(fa, fb);
}

}  // namespace uxm
