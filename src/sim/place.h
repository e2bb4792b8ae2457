// Place: a named venue with walkable paths, radio infrastructure and
// landmarks -- the world every experiment runs in.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geo/bbox.h"
#include "geo/spatial_index.h"
#include "geo/latlon.h"
#include "geo/polyline.h"
#include "geo/segment.h"
#include "geo/vec2.h"
#include "sim/types.h"

namespace uniloc::sim {

/// One named walkable route through a place (e.g. "Path 1" of Fig. 4),
/// a polyline annotated with typed segments by arc length.
struct Walkway {
  std::string name;
  geo::Polyline line;
  std::vector<PathSegment> segments;  ///< Ordered, covering [0, length].

  /// Segment attributes at arc length s (clamped).
  const PathSegment& segment_at(double arclen) const;

  /// Total length of stretches satisfying a predicate.
  double length_where(bool (*pred)(SegmentType)) const;

  /// Landmarks implied by geometry: one kTurn at every vertex whose
  /// direction change exceeds `min_turn_rad`.
  std::vector<Landmark> turn_landmarks(double min_turn_rad = 0.5) const;
};

/// Attributes of the environment at a point (resolved via the nearest
/// walkway; points far from all walkways resolve to open space).
struct LocalEnvironment {
  SegmentType type{SegmentType::kOpenSpace};
  double corridor_width_m{12.0};
  bool indoor{false};
  double sky_visibility{1.0};
  std::size_t walkway{0};
  double arclen{0.0};
  double distance_to_walkway{0.0};
};

class Place {
 private:
  struct EnvIndex;  // Defined below; named early for EnvView.

 public:
  Place(std::string name, geo::LatLon anchor);

  /// Borrowed view over the environment index: pins the index once (a
  /// single shared_ptr copy) so per-particle hot loops can query
  /// corridor safety and the environment without paying an atomic
  /// refcount round-trip on every call -- at ~1200 queries per epoch
  /// those two lock-prefixed ops per query were a measurable slice of
  /// the map constraint. Results are bit-identical to
  /// corridor_safe_fast / environment_at_fast; acquire one view per
  /// reweight pass, not per query.
  class EnvView {
   public:
    /// Same contract as Place::corridor_safe_fast.
    bool corridor_safe(geo::Vec2 p) const;
    /// Same contract as Place::environment_at_fast.
    LocalEnvironment environment(geo::Vec2 p) const;

    /// Fine-cell codes of the index (see EnvIndex::fine_code): kGeneral
    /// cells take the full candidate scan, kSafe cells are corridor-safe,
    /// and kFirstEdge + k names the one edge that can be nearest anywhere
    /// in the cell, the k-th of its coarse cell's edge candidates.
    static constexpr std::uint8_t kGeneral = 0;
    static constexpr std::uint8_t kSafe = 1;
    static constexpr std::uint8_t kFirstEdge = 2;
    /// The fine cell of a point off the index grid (or with no index).
    static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

    /// Index of p's fine cell, or kNoCell.
    std::uint32_t fine_cell(geo::Vec2 p) const;
    /// fine_cell() of n points (xs[i], ys[i]) in one vector pass.
    void fine_cells(const double* xs, const double* ys, std::size_t n,
                    std::uint32_t* cells) const;
    /// The code of a fine_cell() result; kGeneral for kNoCell.
    std::uint8_t code(std::uint32_t cell) const;
    /// environment(p) for a p whose fine_cell() is already known: the
    /// same result bit for bit. Unique-edge cells project onto their one
    /// edge; every other cell takes environment(p)'s candidate scan.
    LocalEnvironment environment(geo::Vec2 p, std::uint32_t cell) const;

   private:
    friend class Place;
    EnvView(const Place* place, std::shared_ptr<const EnvIndex> idx)
        : place_(place), idx_(std::move(idx)) {}
    const Place* place_;
    std::shared_ptr<const EnvIndex> idx_;
  };

  /// Pin the current env index (see EnvView). Safe to call before
  /// prebuild_env_index(); queries then fall back like the _fast calls.
  EnvView env_view() const { return EnvView(this, env_index_); }

  const std::string& name() const { return name_; }
  const geo::LocalFrame& frame() const { return frame_; }

  /// --- construction -------------------------------------------------
  /// Add a walkway; returns its index.
  std::size_t add_walkway(Walkway w);
  void add_access_point(AccessPoint ap);
  void add_cell_tower(CellTower t);
  void add_landmark(Landmark l);
  void add_wall(geo::Segment wall);

  /// Derive kTurn landmarks for all walkways and append them.
  void add_turn_landmarks(double min_turn_rad = 0.5);

  /// --- queries --------------------------------------------------------
  const std::vector<Walkway>& walkways() const { return walkways_; }
  const std::vector<AccessPoint>& access_points() const { return aps_; }
  const std::vector<CellTower>& cell_towers() const { return towers_; }
  const std::vector<Landmark>& landmarks() const { return landmarks_; }
  const std::vector<geo::Segment>& walls() const { return walls_; }

  /// True if the straight move a -> b crosses any wall.
  bool crosses_wall(geo::Vec2 a, geo::Vec2 b) const;

  /// Force-build the lazy wall index now. crosses_wall() builds it on
  /// first query, which is a hidden write behind a const call -- call
  /// this once before sharing a Place across threads (the svc server
  /// does) so concurrent const queries are genuinely read-only.
  void prebuild_wall_index() const;

  /// Bounding box of all walkways (inflated a little for grids).
  geo::BBox bounds() const;

  /// Environment attributes at a point.
  LocalEnvironment environment_at(geo::Vec2 p) const;

  /// environment_at through a precomputed per-cell candidate index: only
  /// the walkways that can possibly be nearest to some point of the
  /// query's grid cell are projected. Bit-identical to environment_at --
  /// the pruning is a strict triangle-inequality bound, so every pruned
  /// walkway is strictly farther than the winner at every point of the
  /// cell (never the `<` winner, and the global minimum distance is
  /// unchanged, so the open-space fallback fires identically). Falls back
  /// to the full scan off-grid or while the index is not built.
  LocalEnvironment environment_at_fast(geo::Vec2 p) const;

  /// Force-build the candidate index behind environment_at_fast() now;
  /// invalidated by add_walkway. Like prebuild_wall_index, call once at
  /// deployment warmup before sharing the Place across threads.
  void prebuild_env_index() const;

  /// True when every point of p's env-index grid cell is provably inside
  /// its nearest walkway's corridor (distance to the walkway at most half
  /// the walkway's minimum corridor width, with conservative margins for
  /// the cell diagonal and rounding). Where this holds, the map
  /// constraint's corridor likelihood is exactly 1.0 -- the map
  /// constraint uses it to skip the walkway projection entirely without
  /// changing a single particle weight. Returns false off-grid, on unsafe
  /// cells, or while the index is not built (callers then take the full
  /// environment path).
  bool corridor_safe_fast(geo::Vec2 p) const;

  /// Landmarks within `radius` of a point.
  std::vector<const Landmark*> landmarks_near(geo::Vec2 p,
                                              double radius) const;

  /// Total walkway length (meters).
  double total_walkway_length() const;

 private:
  std::string name_;
  geo::LocalFrame frame_;
  std::vector<Walkway> walkways_;
  std::vector<AccessPoint> aps_;
  std::vector<CellTower> towers_;
  std::vector<Landmark> landmarks_;
  std::vector<geo::Segment> walls_;
  /// Lazily (re)built bucket index over walls_; invalidated by add_wall.
  /// shared_ptr keeps Place copyable (copies share the immutable index).
  mutable std::shared_ptr<const geo::SegmentIndex> wall_index_;

  /// Per-cell candidate walkways for environment_at_fast: a walkway is a
  /// candidate of a cell iff its distance to the cell center is within
  /// twice the cell half-diagonal of the closest walkway's (triangle
  /// inequality: anything farther can never win anywhere in the cell).
  /// Candidates are stored in ascending walkway order so the first-
  /// strictly-smaller tie-break of environment_at is preserved.
  struct EnvIndex {
    geo::BBox box;
    double cell{0.0};
    std::size_t nx{0}, ny{0};
    std::vector<std::uint32_t> begin;       ///< Cell -> span into candidates.
    std::vector<std::uint32_t> candidates;  ///< Walkway indices per cell.
    /// Fine-grained cell codes (EnvView::kGeneral / kSafe /
    /// kFirstEdge + k). Coarse (4 m) cells never certify safety in
    /// realistic venues -- their half-diagonal (2.8 m) alone exceeds the
    /// 1.75-2.25 m corridor half-widths -- so safety is tested on a
    /// sub-grid whose half-diagonal (0.35 m at 0.5 m cells) leaves room
    /// for the bound to hold. A fine cell that is not safe gets
    /// kFirstEdge + k when the coarse cell's k-th edge candidate is the
    /// only one the triangle-inequality bound keeps at the fine radius.
    /// Only coarse cells where safety is possible at all are refined;
    /// everything else stays kGeneral without a single projection.
    double fine_cell{0.0};
    std::size_t fnx{0}, fny{0};
    std::vector<std::uint8_t> fine_code;
    /// Edge-level candidate lists, packed (walkway << 16) | edge and
    /// stored ascending. The same triangle-inequality proof applies per
    /// edge: an edge whose center distance exceeds the cell minimum by
    /// more than the cell diagonal can never be the nearest edge (nor an
    /// exact tie) anywhere in the cell, so querying only the kept edges
    /// reproduces the full projection bit for bit while skipping most of
    /// each candidate walkway's vertices. Left empty (query falls back
    /// to walkway-level candidates) when any walkway is degenerate
    /// (< 2 points) or indices would overflow the 16-bit packing.
    std::vector<std::uint32_t> ebegin;  ///< Cell -> span into ecand.
    std::vector<std::uint32_t> ecand;   ///< Packed (walkway, edge) per cell.
  };
  LocalEnvironment environment_over(geo::Vec2 p, const std::uint32_t* cand,
                                    std::size_t count) const;
  LocalEnvironment environment_over_edges(geo::Vec2 p,
                                          const std::uint32_t* cand,
                                          std::size_t count) const;
  /// environment_at's result when walkway `walkway` wins at `arclen`,
  /// `distance` away (the open-space fallback included).
  LocalEnvironment environment_from(std::size_t walkway, double arclen,
                                    double distance) const;
  mutable std::shared_ptr<const EnvIndex> env_index_;
};

}  // namespace uniloc::sim
