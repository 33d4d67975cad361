#ifndef PSTORM_ML_GBRT_H_
#define PSTORM_ML_GBRT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ml/regression_tree.h"

namespace pstorm::ml {

/// Loss functions supported by the booster, mirroring the `distribution`
/// argument of R's gbm package used in thesis Appendix A.
enum class GbrtLoss { kGaussian, kLaplace };

/// Gradient Boosted Regression Trees, following the gbm semantics the
/// thesis configures (§6.1.2): shrinkage, bag fraction, train fraction,
/// interaction depth, n.minobsinnode, and cross-validated selection of the
/// best iteration count (gbm.perf with method="cv").
class GradientBoostedTrees {
 public:
  struct Options {
    GbrtLoss loss = GbrtLoss::kGaussian;
    int num_trees = 2000;
    double shrinkage = 0.005;
    /// Fraction of training rows bagged per tree.
    double bag_fraction = 0.5;
    /// Fraction of the data used for learning (the rest is held out and
    /// unused, as in gbm's train.fraction).
    double train_fraction = 0.5;
    int cv_folds = 10;
    int interaction_depth = 3;
    int min_obs_in_node = 10;
    uint64_t seed = 123;
  };

  /// Trains on (x, y); uses `options.cv_folds`-fold cross-validation over
  /// the training slice to choose the iteration count actually used for
  /// prediction.
  static Result<GradientBoostedTrees> Fit(const FeatureMatrix& x,
                                          const std::vector<double>& y,
                                          Options options);

  /// Predicts with the CV-selected number of trees.
  double Predict(const std::vector<double>& features) const;

  int best_iteration() const { return best_iteration_; }
  size_t num_trees_trained() const { return trees_.size(); }

 private:
  GradientBoostedTrees() = default;

  double initial_prediction_ = 0.0;
  double shrinkage_ = 0.0;
  int best_iteration_ = 0;
  std::vector<RegressionTree> trees_;
};

}  // namespace pstorm::ml

#endif  // PSTORM_ML_GBRT_H_
