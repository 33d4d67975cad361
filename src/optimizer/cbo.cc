#include "optimizer/cbo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "obs/metrics.h"

namespace pstorm::optimizer {

namespace {

int LogUniformInt(Rng* rng, int lo, int hi) {
  const double x = rng->Uniform(std::log(static_cast<double>(lo)),
                                std::log(static_cast<double>(hi) + 1.0));
  return std::clamp(static_cast<int>(std::exp(x)), lo, hi);
}

}  // namespace

CostBasedOptimizer::CostBasedOptimizer(const whatif::WhatIfEngine* engine,
                                       Options options)
    : engine_(engine), options_(options) {
  PSTORM_CHECK(engine != nullptr);
}

Result<CostBasedOptimizer::Recommendation> CostBasedOptimizer::Optimize(
    const profiler::ExecutionProfile& profile, const mrsim::DataSetSpec& data,
    obs::CboTrace* trace) const {
  static obs::Histogram& optimize_micros =
      obs::MetricsRegistry::Global().GetHistogram("pstorm_cbo_optimize_micros");
  obs::ScopedTimer optimize_timer(&optimize_micros,
                                  trace != nullptr ? &trace->seconds : nullptr);
  const mrsim::ClusterSpec& cluster = engine_->cluster();
  const double max_sort_mb =
      std::max(32.0, cluster.task_heap_mb - options_.heap_margin_mb);
  const int max_reducers = 3 * cluster.total_reduce_slots();

  Rng rng(options_.seed);

  auto random_candidate = [&]() {
    mrsim::Configuration c;
    c.io_sort_mb = rng.Uniform(32.0, max_sort_mb);
    c.io_sort_record_percent = rng.Uniform(0.01, 0.40);
    c.io_sort_spill_percent = rng.Uniform(0.50, 0.95);
    c.io_sort_factor = LogUniformInt(&rng, 2, 300);
    c.use_combiner = rng.Bernoulli(0.5);
    c.min_num_spills_for_combine = rng.Bernoulli(0.5) ? 1 : 3;
    c.compress_map_output = rng.Bernoulli(0.5);
    c.reduce_slowstart_completed_maps = rng.Uniform(0.0, 1.0);
    c.num_reduce_tasks = LogUniformInt(&rng, 1, max_reducers);
    c.shuffle_input_buffer_percent = rng.Uniform(0.30, 0.90);
    c.shuffle_merge_percent = rng.Uniform(0.30, 0.95);
    c.inmem_merge_threshold = LogUniformInt(&rng, 100, 10000);
    c.reduce_input_buffer_percent = rng.Uniform(0.0, 0.60);
    c.compress_output = rng.Bernoulli(0.5);
    return c;
  };

  auto perturb = [&](const mrsim::Configuration& base) {
    mrsim::Configuration c = base;
    c.io_sort_mb = std::clamp(
        base.io_sort_mb * rng.LogNormal(0.0, 0.15), 32.0, max_sort_mb);
    c.io_sort_record_percent = std::clamp(
        base.io_sort_record_percent + rng.Gaussian(0.0, 0.03), 0.01, 0.40);
    c.io_sort_spill_percent = std::clamp(
        base.io_sort_spill_percent + rng.Gaussian(0.0, 0.05), 0.50, 0.95);
    c.io_sort_factor = std::clamp(
        static_cast<int>(base.io_sort_factor * rng.LogNormal(0.0, 0.2)), 2,
        300);
    if (rng.Bernoulli(0.15)) c.use_combiner = !c.use_combiner;
    if (rng.Bernoulli(0.15)) c.compress_map_output = !c.compress_map_output;
    if (rng.Bernoulli(0.15)) c.compress_output = !c.compress_output;
    c.reduce_slowstart_completed_maps = std::clamp(
        base.reduce_slowstart_completed_maps + rng.Gaussian(0.0, 0.1), 0.0,
        1.0);
    c.num_reduce_tasks = std::clamp(
        static_cast<int>(std::lround(base.num_reduce_tasks *
                                     rng.LogNormal(0.0, 0.25))),
        1, max_reducers);
    c.shuffle_input_buffer_percent = std::clamp(
        base.shuffle_input_buffer_percent + rng.Gaussian(0.0, 0.05), 0.30,
        0.90);
    c.reduce_input_buffer_percent = std::clamp(
        base.reduce_input_buffer_percent + rng.Gaussian(0.0, 0.08), 0.0,
        0.60);
    return c;
  };

  Recommendation best;
  best.predicted_runtime_s = std::numeric_limits<double>::infinity();
  int evaluated = 0;

  // Evaluates a batch in candidate order and folds it into the incumbent
  // with a strict '<', so ties keep the earlier candidate.
  auto evaluate_batch = [&](const std::vector<mrsim::Configuration>& batch,
                            const char* phase) {
    obs::CboRoundTrace round_trace;
    round_trace.phase = phase;
    {
      obs::ScopedTimer round_timer(nullptr, &round_trace.seconds);
      for (const mrsim::Configuration& c : batch) {
        if (!c.Validate().ok()) continue;
        auto prediction = engine_->Predict(profile, data, c);
        if (!prediction.ok()) continue;
        ++evaluated;
        ++round_trace.candidates_evaluated;
        if (prediction->runtime_s < best.predicted_runtime_s) {
          best.predicted_runtime_s = prediction->runtime_s;
          best.config = c;
        }
      }
    }
    if (trace != nullptr) {
      round_trace.best_predicted_s = best.predicted_runtime_s;
      trace->rounds.push_back(std::move(round_trace));
    }
  };

  // Seed points first: the Hadoop defaults and a sensible-reducers
  // variant, so the optimizer can never be worse than the obvious
  // baselines according to its own model. Then global exploration, drawn
  // from the single seeded RNG.
  {
    std::vector<mrsim::Configuration> batch;
    batch.reserve(2 + static_cast<size_t>(options_.global_samples));
    batch.emplace_back();
    {
      mrsim::Configuration c;
      c.num_reduce_tasks =
          std::max(1, static_cast<int>(0.9 * cluster.total_reduce_slots()));
      batch.push_back(c);
    }
    for (int i = 0; i < options_.global_samples; ++i) {
      batch.push_back(random_candidate());
    }
    evaluate_batch(batch, "seed+global");
  }

  // Local refinement around the incumbent (recursive random search). A
  // round's perturbations all derive from the incumbent entering the
  // round.
  for (int round = 0; round < options_.refinement_rounds; ++round) {
    const mrsim::Configuration incumbent = best.config;
    std::vector<mrsim::Configuration> batch;
    batch.reserve(static_cast<size_t>(options_.local_samples));
    for (int i = 0; i < options_.local_samples; ++i) {
      batch.push_back(perturb(incumbent));
    }
    char phase[24];
    std::snprintf(phase, sizeof(phase), "refine %d", round + 1);
    evaluate_batch(batch, phase);
  }

  static obs::Counter& candidates_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "pstorm_cbo_candidates_evaluated_total");
  candidates_counter.Add(static_cast<uint64_t>(evaluated));
  if (trace != nullptr) {
    trace->candidates_evaluated = static_cast<uint64_t>(evaluated);
  }

  if (!std::isfinite(best.predicted_runtime_s)) {
    return Status::Internal("no feasible configuration found");
  }
  best.candidates_evaluated = evaluated;
  return best;
}

}  // namespace pstorm::optimizer
