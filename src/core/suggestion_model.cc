#include "core/suggestion_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace dssddi::core {

std::vector<int> TopKDrugs(const tensor::Matrix& scores, int row, int k) {
  DSSDDI_CHECK(row >= 0 && row < scores.rows()) << "row out of range";
  const int num_drugs = scores.cols();
  const float* s = scores.RowPtr(row);
  std::vector<int> order(num_drugs);
  std::iota(order.begin(), order.end(), 0);
  k = std::max(0, std::min(k, num_drugs));
  // A strict total order even with NaNs (partial_sort needs one): the
  // NaN test runs only for pairs that are neither > nor <.
  const auto before = [s](int a, int b) {
    if (s[a] > s[b]) return true;
    if (s[a] < s[b]) return false;
    const bool a_nan = std::isnan(s[a]);
    if (a_nan != std::isnan(s[b])) return !a_nan;
    return a < b;
  };
  std::partial_sort(order.begin(), order.begin() + k, order.end(), before);
  order.resize(k);
  return order;
}

}  // namespace dssddi::core
