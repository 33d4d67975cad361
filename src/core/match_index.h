#ifndef PSTORM_CORE_MATCH_INDEX_H_
#define PSTORM_CORE_MATCH_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/feature_vector.h"

namespace pstorm::core {

/// An exact secondary index over one vector space (e.g. "map-side dynamic
/// features"): stores every member contiguously in dimension-major (SoA)
/// order and, when `bucketed`, additionally maintains one grid of inverted
/// lists keyed on coarse quantized cells of the raw values.
///
/// A lookup enumerates only the members of cells whose minimum possible
/// normalized distance to the probe is within `theta`, then verifies the
/// survivors with a branch-free vectorized kernel that replays the
/// exhaustive filter's exact arithmetic — the result is the same key set,
/// in the same (lexicographic) order, as the pushed-down region scan.
///
/// Cell keys are pure functions of the *raw* feature values (quantized in
/// asinh space, which is sign-preserving and scale-free), so they stay
/// valid as the store's normalization bounds widen; normalization enters
/// only at query time, when cell boundaries are mapped through the current
/// bounds.
///
/// Not internally synchronized: the owner (ProfileStore) serializes
/// mutations and excludes them from lookups.
class VectorSpaceIndex {
 public:
  /// A bucketed space packs its cell key into 64 bits, 16 per dim, so it
  /// has at most 4 dims (checked).
  VectorSpaceIndex(size_t dims, bool bucketed);

  /// Inserts or replaces `key`. `values.size()` must equal dims().
  void Put(const std::string& key, const std::vector<double>& values);
  /// Removes `key` (idempotent); returns whether it was present.
  bool Delete(const std::string& key);
  void Clear();

  size_t size() const { return live_; }
  size_t dims() const { return dims_; }

  struct QueryStats {
    uint64_t cells_visited = 0;
    uint64_t cells_pruned = 0;
    /// Posting entries enumerated from surviving cells; the index's
    /// analogue of rows_scanned.
    uint64_t candidates_enumerated = 0;
    uint64_t candidates_returned = 0;
  };

  /// Keys whose exact normalized Euclidean distance to `probe` is within
  /// `theta`, sorted lexicographically. `mins`/`ranges` are the current
  /// normalization (FeatureBounds mins and effective ranges); the distance
  /// replays `(v - min) / range` per dimension, the squared sum in
  /// dimension order, then `sqrt(sum) <= theta` — the exhaustive filter's
  /// arithmetic exactly. `distances` (optional) receives those distances,
  /// parallel to the returned keys.
  std::vector<std::string> Lookup(const std::vector<double>& probe,
                                  double theta,
                                  const std::vector<double>& mins,
                                  const std::vector<double>& ranges,
                                  QueryStats* stats = nullptr,
                                  std::vector<double>* distances = nullptr)
      const;

  /// (key, raw values) of every live member, sorted by key. The cell
  /// structure is a pure function of the values, so snapshot equality
  /// implies index equality (crash tests compare rebuilt vs incremental).
  std::vector<std::pair<std::string, std::vector<double>>> Snapshot() const;

 private:
  uint64_t CellKey(const std::vector<double>& values) const;
  void RemoveSlot(uint32_t slot);

  const size_t dims_;
  const bool bucketed_;

  /// Dimension-major member storage; slot-parallel with keys_. Tombstoned
  /// slots keep their values (they are unreachable: not in any posting
  /// list, key erased) and are reused by the next Put.
  SoaBatch soa_;
  std::vector<std::string> keys_;  // slot -> key; "" = tombstone.
  std::unordered_map<std::string, uint32_t> slot_of_key_;
  std::vector<uint32_t> free_slots_;
  size_t live_ = 0;

  /// Packed quantized cell -> slots of the members in that cell. Empty
  /// when !bucketed_.
  std::unordered_map<uint64_t, std::vector<uint32_t>> cells_;
};

/// The full secondary-index layer over a ProfileStore's discovery
/// features: one bucketed space per side for the dynamic-statistic
/// vectors (stage 1 of the funnel) and one scan-only SoA space per side
/// for the cost factors (the alternative filter). Maintained incrementally
/// on PutProfile/DeleteProfile and rebuilt from the table on open.
/// Dimensionality of each indexed space; must match the store's column
/// vectors (Tables 4.1/4.2: 4/5 map-side, 2/4 reduce-side).
struct MatchIndexSpec {
  size_t map_dynamic_dims = 4;
  size_t map_cost_dims = 5;
  size_t reduce_dynamic_dims = 2;
  size_t reduce_cost_dims = 4;
};

class MatchIndex {
 public:
  using Spec = MatchIndexSpec;

  explicit MatchIndex(Spec spec = {});

  /// Side selectors (profile_store.h's Side enum maps onto these; this
  /// header stays below profile_store.h in the include order).
  static constexpr int kMap = 0;
  static constexpr int kReduce = 1;

  /// Inserts or replaces `job_key` in all four spaces. A vector of the
  /// wrong length removes the key from that space only — mirroring the
  /// exhaustive filter, which rejects rows with missing or malformed
  /// columns per scanned vector, not per profile.
  void Put(const std::string& job_key, const std::vector<double>& map_dynamic,
           const std::vector<double>& map_costs,
           const std::vector<double>& reduce_dynamic,
           const std::vector<double>& reduce_costs);
  void Delete(const std::string& job_key);
  void Clear();

  /// Live members of the side's dynamic space (the store's notion of an
  /// indexed profile).
  size_t size(int side) const { return dynamic_[side].size(); }

  const VectorSpaceIndex& dynamic_space(int side) const {
    return dynamic_[side];
  }
  const VectorSpaceIndex& cost_space(int side) const { return cost_[side]; }

 private:
  VectorSpaceIndex dynamic_[2];
  VectorSpaceIndex cost_[2];
};

}  // namespace pstorm::core

#endif  // PSTORM_CORE_MATCH_INDEX_H_
