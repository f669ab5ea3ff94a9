#include "serve/explanation_memo.h"

#include <algorithm>
#include <cstring>

#include "io/binary.h"

namespace dssddi::serve {
namespace {

static_assert(sizeof(int) == sizeof(int32_t), "drug ids are stored as int32");
static_assert(sizeof(double) == 2 * sizeof(int32_t),
              "doubles are stored as two int32 words");

using Edges = std::vector<core::InteractionEdge>;

/// The one place that fixes an entry's layout: each codec below walks
/// the fields in this order. The drug vector comes first, so an entry's
/// prefix is its key. A list is its length, then its items; an edge is
/// three words (u, v, sign); a double is its bits in two words.
template <typename Codec, typename E>
void Transfer(Codec& codec, E& explanation) {
  codec.Ints(explanation.suggested_drugs);
  codec.Ints(explanation.subgraph_drugs);
  codec.EdgeList(explanation.subgraph_edges);
  codec.EdgeList(explanation.synergies_within);
  codec.EdgeList(explanation.antagonisms_within);
  codec.EdgeList(explanation.antagonisms_outward);
  codec.Double(explanation.suggestion_satisfaction);
  codec.Int(explanation.trussness);
  codec.Int(explanation.diameter);
  codec.Double(explanation.density);
}

/// Counts the words an entry takes.
struct Sizer {
  size_t words = 0;
  void Ints(const std::vector<int>& values) { words += 1 + values.size(); }
  void EdgeList(const Edges& edges) { words += 1 + 3 * edges.size(); }
  void Double(double) { words += 2; }
  void Int(int) { words += 1; }
};

class Writer {
 public:
  explicit Writer(int32_t* out) : out_(out) {}
  void Ints(const std::vector<int>& values) {
    Int(static_cast<int>(values.size()));
    out_ = std::copy(values.begin(), values.end(), out_);
  }
  void EdgeList(const Edges& edges) {
    Int(static_cast<int>(edges.size()));
    for (const core::InteractionEdge& edge : edges) {
      Int(edge.drug_u);
      Int(edge.drug_v);
      Int(static_cast<int>(edge.sign));
    }
  }
  void Double(double value) {
    std::memcpy(out_, &value, sizeof value);
    out_ += 2;
  }
  void Int(int value) { *out_++ = value; }

 private:
  int32_t* out_;
};

class Reader {
 public:
  explicit Reader(const int32_t* in) : in_(in) {}
  void Ints(std::vector<int>& values) {
    const int32_t n = *in_++;
    values.assign(in_, in_ + n);
    in_ += n;
  }
  void EdgeList(Edges& edges) {
    const int32_t n = *in_++;
    edges.reserve(n);
    for (int32_t i = 0; i < n; ++i, in_ += 3) {
      edges.push_back({in_[0], in_[1], static_cast<graph::EdgeSign>(in_[2])});
    }
  }
  void Double(double& value) {
    std::memcpy(&value, in_, sizeof value);
    in_ += 2;
  }
  void Int(int& value) { value = *in_++; }

 private:
  const int32_t* in_;
};

uint64_t HashOf(const std::vector<int>& drugs) {
  return io::Fnv1a64(reinterpret_cast<const char*>(drugs.data()),
                     drugs.size() * sizeof(int));
}

/// Whether `entry` was stored for exactly `drugs`.
bool IsEntryFor(const int32_t* entry, const std::vector<int>& drugs) {
  return entry[0] == static_cast<int32_t>(drugs.size()) &&
         std::equal(drugs.begin(), drugs.end(), entry + 1);
}

}  // namespace

core::Explanation ExplanationMemo::Explain(const std::vector<int>& drugs,
                                           bool* hit) {
  const uint64_t hash = HashOf(drugs);
  const int32_t* entry = nullptr;
  bool full = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(hash);
    if (it != entries_.end()) entry = it->second.get();
    full = entries_.size() >= kCapacity;
  }
  core::Explanation explanation;
  if (entry != nullptr && IsEntryFor(entry, drugs)) {
    *hit = true;
    Reader reader(entry);
    Transfer(reader, explanation);
    return explanation;
  }
  *hit = false;
  explanation = ms_.Explain(drugs);
  if (entry == nullptr && !full) {
    Sizer sizer;
    Transfer(sizer, explanation);
    std::unique_ptr<int32_t[]> buffer(new int32_t[sizer.words]);
    Writer writer(buffer.get());
    Transfer(writer, explanation);
    std::lock_guard<std::mutex> lock(mutex_);
    // Another worker may have stored this vector, or filled the memo,
    // since the lookup; the first entry stays and this one is dropped.
    if (entries_.size() < kCapacity) entries_.try_emplace(hash, std::move(buffer));
  }
  return explanation;
}

size_t ExplanationMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace dssddi::serve
