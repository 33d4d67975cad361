#include "core/match_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace pstorm::core {

namespace {

/// Quantized coordinates are packed 16 bits per dimension into the 64-bit
/// cell key, so a bucketed space has at most 4 dimensions. kNanCoord marks
/// a NaN value (its cell is never pruned into the result: the exact verify
/// rejects NaN distances, as the exhaustive filter does).
constexpr int kMaxCoord = 32766;
constexpr int kMinCoord = -32766;
constexpr int kNanCoord = -32768;
constexpr size_t kMaxBucketedDims = 4;
/// Quantization width of a cell in asinh(value) space (DESIGN.md §13).
constexpr double kCellWidth = 0.5;

int QuantizeCoord(double value) {
  const double u = std::asinh(value) / kCellWidth;
  if (std::isnan(u)) return kNanCoord;
  if (u >= kMaxCoord) return kMaxCoord;
  if (u <= kMinCoord) return kMinCoord;
  return static_cast<int>(std::floor(u));
}

/// The raw-value interval covered by coordinate `c`, padded so that every
/// value that quantizes to `c` provably lies inside despite asinh/sinh
/// rounding. Clamped edge coordinates extend to infinity.
void CoordInterval(int c, double* lo, double* hi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (c == kNanCoord) {
    // NaN members never pass the exact filter; an unprunable interval
    // keeps the cell conservative without special-casing the caller.
    *lo = -kInf;
    *hi = kInf;
    return;
  }
  *lo = c <= kMinCoord ? -kInf : std::sinh(c * kCellWidth);
  *hi = c >= kMaxCoord ? kInf : std::sinh((c + 1) * kCellWidth);
  if (std::isfinite(*lo)) *lo -= std::fabs(*lo) * 1e-9 + 1e-12;
  if (std::isfinite(*hi)) *hi += std::fabs(*hi) * 1e-9 + 1e-12;
}

}  // namespace

VectorSpaceIndex::VectorSpaceIndex(size_t dims, bool bucketed)
    : dims_(dims), bucketed_(bucketed), soa_(dims) {
  PSTORM_CHECK(dims_ > 0);
  PSTORM_CHECK(!bucketed_ || dims_ <= kMaxBucketedDims);
}

uint64_t VectorSpaceIndex::CellKey(const std::vector<double>& values) const {
  uint64_t key = 0;
  for (size_t d = 0; d < dims_; ++d) {
    const int c = QuantizeCoord(values[d]);
    key = (key << 16) | static_cast<uint16_t>(c - kNanCoord);
  }
  return key;
}

void VectorSpaceIndex::Put(const std::string& key,
                           const std::vector<double>& values) {
  PSTORM_CHECK(values.size() == dims_);
  Delete(key);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    soa_.Assign(slot, values);
    keys_[slot] = key;
  } else {
    slot = static_cast<uint32_t>(soa_.Append(values));
    keys_.push_back(key);
  }
  slot_of_key_[key] = slot;
  ++live_;
  if (bucketed_) cells_[CellKey(values)].push_back(slot);
}

bool VectorSpaceIndex::Delete(const std::string& key) {
  auto it = slot_of_key_.find(key);
  if (it == slot_of_key_.end()) return false;
  RemoveSlot(it->second);
  slot_of_key_.erase(it);
  return true;
}

void VectorSpaceIndex::RemoveSlot(uint32_t slot) {
  if (bucketed_) {
    auto cell = cells_.find(CellKey(soa_.Row(slot)));
    PSTORM_CHECK(cell != cells_.end());
    auto& slots = cell->second;
    slots.erase(std::find(slots.begin(), slots.end(), slot));
    if (slots.empty()) cells_.erase(cell);
  }
  keys_[slot].clear();
  free_slots_.push_back(slot);
  --live_;
}

void VectorSpaceIndex::Clear() {
  soa_ = SoaBatch(dims_);
  keys_.clear();
  slot_of_key_.clear();
  free_slots_.clear();
  live_ = 0;
  cells_.clear();
}

std::vector<std::string> VectorSpaceIndex::Lookup(
    const std::vector<double>& probe, double theta,
    const std::vector<double>& mins, const std::vector<double>& ranges,
    QueryStats* stats, std::vector<double>* out_distances) const {
  PSTORM_CHECK(probe.size() == dims_);
  PSTORM_CHECK(mins.size() == dims_);
  PSTORM_CHECK(ranges.size() == dims_);
  QueryStats local;
  QueryStats& q = stats != nullptr ? *stats : local;
  q = QueryStats{};

  // The probe normalized exactly as FeatureBounds::Normalize does.
  std::vector<double> normalized_probe(dims_);
  for (size_t d = 0; d < dims_; ++d) {
    normalized_probe[d] = (probe[d] - mins[d]) / ranges[d];
  }

  std::vector<uint32_t> rows;
  if (!bucketed_) {
    // Scan-only space: verify every slot (tombstones are filtered at the
    // accept stage below).
    rows.resize(keys_.size());
    for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
    q.candidates_enumerated = live_;
  } else {
    // A cell whose nearest point lies beyond theta holds no member within
    // theta. The radius is padded by a hair so floating-point slack in the
    // cell bounds can never drop a true candidate (the exact verify below
    // removes every false one).
    const double theta_sq = theta * theta * (1.0 + 1e-9) + 1e-12;
    std::vector<char> hit(keys_.size(), 0);
    for (const auto& [cell_key, slots] : cells_) {
      ++q.cells_visited;
      // Minimum possible squared normalized distance between the probe
      // and any point of the cell.
      uint64_t packed = cell_key;
      double min_dist_sq = 0.0;
      for (size_t d = dims_; d-- > 0;) {
        const int c = static_cast<int>(packed & 0xffff) + kNanCoord;
        packed >>= 16;
        double lo, hi;
        CoordInterval(c, &lo, &hi);
        const double nlo = (lo - mins[d]) / ranges[d];
        const double nhi = (hi - mins[d]) / ranges[d];
        const double p = normalized_probe[d];
        double gap = 0.0;
        if (p < nlo) gap = nlo - p;
        if (p > nhi) gap = p - nhi;
        min_dist_sq += gap * gap;
      }
      if (min_dist_sq > theta_sq) {
        ++q.cells_pruned;
        continue;
      }
      q.candidates_enumerated += slots.size();
      for (uint32_t slot : slots) hit[slot] = 1;
    }
    // Slot order keeps the verify pass sequential in memory and, since a
    // rebuild inserts in key order, usually is key order. Marking costs
    // one pass over the slots; at the default θ nearly every member is
    // enumerated, and sorting them cost more.
    for (uint32_t slot = 0; slot < hit.size(); ++slot) {
      if (hit[slot]) rows.push_back(slot);
    }
  }

  std::vector<double> distances;
  BatchNormalizedDistances(soa_, rows, mins, ranges, normalized_probe,
                           &distances);
  std::vector<uint32_t> accepted;  // Positions in `rows`.
  for (uint32_t j = 0; j < rows.size(); ++j) {
    if (distances[j] <= theta && !keys_[rows[j]].empty()) {
      accepted.push_back(j);
    }
  }
  // The exhaustive path scans rows in key order; matching it exactly
  // keeps order-sensitive downstream steps (TieBreak among exact ties)
  // bit-identical. Keys are unique, so the order is total.
  const auto by_key = [&](uint32_t a, uint32_t b) {
    return keys_[rows[a]] < keys_[rows[b]];
  };
  if (!std::is_sorted(accepted.begin(), accepted.end(), by_key)) {
    std::sort(accepted.begin(), accepted.end(), by_key);
  }
  std::vector<std::string> out;
  out.reserve(accepted.size());
  for (uint32_t j : accepted) out.push_back(keys_[rows[j]]);
  if (out_distances != nullptr) {
    out_distances->clear();
    out_distances->reserve(accepted.size());
    for (uint32_t j : accepted) out_distances->push_back(distances[j]);
  }
  q.candidates_returned = out.size();
  return out;
}

std::vector<std::pair<std::string, std::vector<double>>>
VectorSpaceIndex::Snapshot() const {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  out.reserve(slot_of_key_.size());
  for (const auto& [key, slot] : slot_of_key_) {
    out.emplace_back(key, soa_.Row(slot));
  }
  std::sort(out.begin(), out.end());
  return out;
}

MatchIndex::MatchIndex(Spec spec)
    : dynamic_{VectorSpaceIndex(spec.map_dynamic_dims, /*bucketed=*/true),
               VectorSpaceIndex(spec.reduce_dynamic_dims, /*bucketed=*/true)},
      cost_{VectorSpaceIndex(spec.map_cost_dims, /*bucketed=*/false),
            VectorSpaceIndex(spec.reduce_cost_dims, /*bucketed=*/false)} {}

void MatchIndex::Put(const std::string& job_key,
                     const std::vector<double>& map_dynamic,
                     const std::vector<double>& map_costs,
                     const std::vector<double>& reduce_dynamic,
                     const std::vector<double>& reduce_costs) {
  const auto put_or_drop = [&](VectorSpaceIndex& space,
                               const std::vector<double>& values) {
    if (values.size() == space.dims()) {
      space.Put(job_key, values);
    } else {
      space.Delete(job_key);
    }
  };
  put_or_drop(dynamic_[kMap], map_dynamic);
  put_or_drop(cost_[kMap], map_costs);
  put_or_drop(dynamic_[kReduce], reduce_dynamic);
  put_or_drop(cost_[kReduce], reduce_costs);
}

void MatchIndex::Delete(const std::string& job_key) {
  for (VectorSpaceIndex& space : dynamic_) space.Delete(job_key);
  for (VectorSpaceIndex& space : cost_) space.Delete(job_key);
}

void MatchIndex::Clear() {
  for (VectorSpaceIndex& space : dynamic_) space.Clear();
  for (VectorSpaceIndex& space : cost_) space.Clear();
}

}  // namespace pstorm::core
