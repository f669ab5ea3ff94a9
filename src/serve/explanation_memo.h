#ifndef DSSDDI_SERVE_EXPLANATION_MEMO_H_
#define DSSDDI_SERVE_EXPLANATION_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/ms_module.h"

namespace dssddi::serve {

/// Bounded memo of one MsModule's explanations, keyed by the exact
/// suggested drug vector. `MsModule::Explain` is a pure function of that
/// vector (and of the module), so a stored answer is the answer: a hit
/// returns, field for field and bit for bit, what `Explain` returns.
/// The key is not sorted, because the explanation depends on the order
/// of the drugs.
///
/// Each entry is one flat int32 buffer (the drug vector first, so it is
/// also the stored key, then every Explanation field, doubles bit-copied)
/// decoded on a hit. Once `kCapacity` vectors are stored the memo stops
/// growing: later vectors are computed and not stored, and nothing is
/// ever evicted, so the memo's memory is fixed by its first vectors
/// instead of churning with traffic.
///
/// Thread-safety: `Explain` may be called from any number of threads.
/// One mutex guards the table and is held only to look up or insert;
/// a stored buffer is never changed or freed while the memo lives, so it
/// is compared and decoded outside the lock.
class ExplanationMemo {
 public:
  static constexpr size_t kCapacity = 4096;

  /// `ms` must outlive the memo.
  explicit ExplanationMemo(const core::MsModule& ms) : ms_(ms) {}

  ExplanationMemo(const ExplanationMemo&) = delete;
  ExplanationMemo& operator=(const ExplanationMemo&) = delete;

  /// `ms.Explain(drugs)`: decoded from the memo when this vector is
  /// stored (`*hit` = true), otherwise computed and stored while there is
  /// room (`*hit` = false).
  core::Explanation Explain(const std::vector<int>& drugs, bool* hit);

  /// Stored vectors (at most kCapacity).
  size_t size() const;

 private:
  const core::MsModule& ms_;
  mutable std::mutex mutex_;
  /// FNV-1a of the drug vector -> the entry's buffer, whose prefix is
  /// the vector itself. A second vector with the same hash is computed
  /// every time and never stored.
  std::unordered_map<uint64_t, std::unique_ptr<const int32_t[]>> entries_;
};

}  // namespace dssddi::serve

#endif  // DSSDDI_SERVE_EXPLANATION_MEMO_H_
