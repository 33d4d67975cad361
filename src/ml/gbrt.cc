#include "ml/gbrt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/random.h"

namespace pstorm::ml {

namespace {

double MeanAt(const std::vector<double>& y, const std::vector<size_t>& rows) {
  double sum = 0;
  for (size_t r : rows) sum += y[r];
  return rows.empty() ? 0.0 : sum / static_cast<double>(rows.size());
}

double MedianAt(const std::vector<double>& y, std::vector<size_t> rows) {
  if (rows.empty()) return 0.0;
  std::sort(rows.begin(), rows.end(),
            [&y](size_t a, size_t b) { return y[a] < y[b]; });
  const size_t mid = rows.size() / 2;
  if (rows.size() % 2 == 1) return y[rows[mid]];
  return 0.5 * (y[rows[mid - 1]] + y[rows[mid]]);
}

/// One full boosting run over `train_rows`, tracking per-iteration loss on
/// `val_rows` (may be empty). Returns the trees and fills `val_loss`.
struct BoostRun {
  double initial = 0;
  std::vector<RegressionTree> trees;
};

Result<BoostRun> Boost(const FeatureMatrix& x, const std::vector<double>& y,
                       const std::vector<size_t>& train_rows,
                       const std::vector<size_t>& val_rows,
                       const GradientBoostedTrees::Options& options,
                       Rng* rng, std::vector<double>* val_loss) {
  const bool laplace = options.loss == GbrtLoss::kLaplace;

  BoostRun run;
  run.initial = laplace ? MedianAt(y, train_rows) : MeanAt(y, train_rows);

  // Current model output per sample (only train/val rows are consulted).
  std::vector<double> f(x.size(), run.initial);
  // Residuals the next tree regresses on.
  std::vector<double> residual(x.size(), 0.0);

  RegressionTree::Options tree_options;
  tree_options.max_depth = options.interaction_depth;
  tree_options.min_samples_leaf = options.min_obs_in_node;

  const size_t bag_size = std::max<size_t>(
      std::max<size_t>(1, 2 * options.min_obs_in_node),
      static_cast<size_t>(options.bag_fraction *
                          static_cast<double>(train_rows.size())));

  run.trees.reserve(options.num_trees);
  if (val_loss != nullptr) val_loss->reserve(options.num_trees);

  for (int iter = 0; iter < options.num_trees; ++iter) {
    for (size_t r : train_rows) residual[r] = y[r] - f[r];

    // Bag a subset of the training rows.
    std::vector<size_t> bag;
    if (bag_size >= train_rows.size()) {
      bag = train_rows;
    } else {
      const std::vector<uint64_t> picks =
          rng->SampleWithoutReplacement(train_rows.size(), bag_size);
      bag.reserve(picks.size());
      for (uint64_t p : picks) bag.push_back(train_rows[p]);
    }

    PSTORM_ASSIGN_OR_RETURN(
        RegressionTree tree,
        RegressionTree::Fit(x, residual, bag, tree_options, laplace));

    for (size_t r : train_rows) {
      f[r] += options.shrinkage * tree.Predict(x[r]);
    }
    if (val_loss != nullptr) {
      double loss = 0;
      for (size_t r : val_rows) {
        f[r] += options.shrinkage * tree.Predict(x[r]);
        const double err = y[r] - f[r];
        loss += laplace ? std::fabs(err) : err * err;
      }
      val_loss->push_back(
          val_rows.empty() ? 0.0
                           : loss / static_cast<double>(val_rows.size()));
    }
    run.trees.push_back(std::move(tree));
  }
  return run;
}

}  // namespace

Result<GradientBoostedTrees> GradientBoostedTrees::Fit(
    const FeatureMatrix& x, const std::vector<double>& y, Options options) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("x and y must be non-empty, same length");
  }
  if (options.num_trees < 1 || options.shrinkage <= 0.0 ||
      options.bag_fraction <= 0.0 || options.bag_fraction > 1.0 ||
      options.train_fraction <= 0.0 || options.train_fraction > 1.0 ||
      options.cv_folds < 2) {
    return Status::InvalidArgument("bad GBRT options");
  }

  // gbm semantics: the first train.fraction of the data is the learning
  // set; the caller is responsible for row order.
  const size_t train_n = std::max<size_t>(
      static_cast<size_t>(2 * options.cv_folds),
      static_cast<size_t>(options.train_fraction *
                          static_cast<double>(x.size())));
  std::vector<size_t> train_rows(std::min(train_n, x.size()));
  std::iota(train_rows.begin(), train_rows.end(), 0);

  Rng rng(options.seed);

  // Cross-validation over the training slice to pick the iteration count.
  std::vector<double> cv_loss(options.num_trees, 0.0);
  for (int fold = 0; fold < options.cv_folds; ++fold) {
    std::vector<size_t> fold_train, fold_val;
    for (size_t i = 0; i < train_rows.size(); ++i) {
      (static_cast<int>(i % options.cv_folds) == fold ? fold_val
                                                      : fold_train)
          .push_back(train_rows[i]);
    }
    if (fold_train.empty() || fold_val.empty()) continue;
    std::vector<double> val_loss;
    Rng fold_rng = rng.Fork(fold + 1);
    PSTORM_ASSIGN_OR_RETURN(
        BoostRun run,
        Boost(x, y, fold_train, fold_val, options, &fold_rng, &val_loss));
    for (int i = 0; i < options.num_trees; ++i) cv_loss[i] += val_loss[i];
  }
  int best_iteration = 1;
  double best_loss = std::numeric_limits<double>::infinity();
  for (int i = 0; i < options.num_trees; ++i) {
    if (cv_loss[i] < best_loss) {
      best_loss = cv_loss[i];
      best_iteration = i + 1;
    }
  }

  // Final model on the full training slice.
  Rng final_rng = rng.Fork(0);
  PSTORM_ASSIGN_OR_RETURN(
      BoostRun run, Boost(x, y, train_rows, {}, options, &final_rng, nullptr));

  GradientBoostedTrees model;
  model.initial_prediction_ = run.initial;
  model.shrinkage_ = options.shrinkage;
  model.best_iteration_ = best_iteration;
  model.trees_ = std::move(run.trees);
  return model;
}

double GradientBoostedTrees::Predict(
    const std::vector<double>& features) const {
  double f = initial_prediction_;
  const int n = std::min<int>(best_iteration_,
                              static_cast<int>(trees_.size()));
  for (int i = 0; i < n; ++i) {
    f += shrinkage_ * trees_[i].Predict(features);
  }
  return f;
}

}  // namespace pstorm::ml
