#ifndef DSSDDI_ALGO_BITS_H_
#define DSSDDI_ALGO_BITS_H_

#include <cstdint>

// Word-packed bitsets (bit v lives in word v / 64) shared by the CTC
// search's adjacency rows and the bucket queues of its Steiner and
// expansion steps.

namespace dssddi::algo {

inline bool TestBit(const uint64_t* bits, int v) { return (bits[v >> 6] >> (v & 63)) & 1; }
inline void SetBit(uint64_t* bits, int v) { bits[v >> 6] |= uint64_t{1} << (v & 63); }
inline void ClearBit(uint64_t* bits, int v) { bits[v >> 6] &= ~(uint64_t{1} << (v & 63)); }

/// Calls visit(v) for every set bit v of word(0) .. word(words - 1), in
/// ascending order; `word` may combine several bitsets on the fly.
template <typename Word, typename Visit>
void ForEachBit(int words, Word&& word, Visit&& visit) {
  for (int w = 0; w < words; ++w) {
    for (uint64_t bits = word(w); bits != 0; bits &= bits - 1) {
      visit(64 * w + __builtin_ctzll(bits));
    }
  }
}

}  // namespace dssddi::algo

#endif  // DSSDDI_ALGO_BITS_H_
