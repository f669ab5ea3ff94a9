#ifndef DSSDDI_CORE_SUGGESTION_MODEL_H_
#define DSSDDI_CORE_SUGGESTION_MODEL_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "tensor/matrix.h"

namespace dssddi::core {

/// Common interface for every medication-suggestion method (DSSDDI and
/// all baselines), consumed by the evaluation harness: fit on the
/// dataset's training split, then score arbitrary patients.
class SuggestionModel {
 public:
  virtual ~SuggestionModel() = default;

  virtual std::string name() const = 0;

  /// Trains on dataset.split.train.
  virtual void Fit(const data::SuggestionDataset& dataset) = 0;

  /// Scores for the given patients: |indices| x num_drugs, larger = more
  /// strongly suggested. Indices refer to dataset rows (typically the
  /// test split, i.e. unobserved patients).
  virtual tensor::Matrix PredictScores(const data::SuggestionDataset& dataset,
                                       const std::vector<int>& patient_indices) = 0;
};

/// Top-k drug ids for one score row: score descending, ties (including
/// 0 against -0) by drug id ascending, the order a stable sort by
/// descending score gives. NaN scores rank after every number, by id.
/// k is clamped to [0, cols]. Selects without sorting the whole row.
std::vector<int> TopKDrugs(const tensor::Matrix& scores, int row, int k);

}  // namespace dssddi::core

#endif  // DSSDDI_CORE_SUGGESTION_MODEL_H_
