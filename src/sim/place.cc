#include "sim/place.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "stats/vecmath.h"

namespace uniloc::sim {

namespace {

/// Polyline::project's per-edge computation: the foot of p on edge e of
/// `pts` at parameter t, `distance` away. Every edge-level path (the
/// index build and both edge queries) goes through this one expression
/// sequence, so their distances and arc lengths match project()'s bits.
struct EdgeFoot {
  double t;
  double len2;
  double distance;
};

EdgeFoot project_on_edge(geo::Vec2 p, const std::vector<geo::Vec2>& pts,
                         std::size_t e) {
  const geo::Vec2 a = pts[e], b = pts[e + 1];
  const geo::Vec2 ab = b - a;
  const double len2 = ab.norm2();
  const double t =
      len2 > 0.0 ? std::clamp((p - a).dot(ab) / len2, 0.0, 1.0) : 0.0;
  return {t, len2, geo::distance(p, geo::lerp(a, b, t))};
}

}  // namespace

const PathSegment& Walkway::segment_at(double arclen) const {
  assert(!segments.empty());
  for (const PathSegment& s : segments) {
    if (arclen >= s.start_arclen && arclen <= s.end_arclen) return s;
  }
  return arclen < segments.front().start_arclen ? segments.front()
                                                : segments.back();
}

double Walkway::length_where(bool (*pred)(SegmentType)) const {
  double total = 0.0;
  for (const PathSegment& s : segments) {
    if (pred(s.type)) total += s.end_arclen - s.start_arclen;
  }
  return total;
}

std::vector<Landmark> Walkway::turn_landmarks(double min_turn_rad) const {
  std::vector<Landmark> out;
  const auto& pts = line.points();
  for (std::size_t i = 1; i + 1 < pts.size(); ++i) {
    const double h0 = (pts[i] - pts[i - 1]).angle();
    const double h1 = (pts[i + 1] - pts[i]).angle();
    if (std::fabs(geo::angle_diff(h1, h0)) >= min_turn_rad) {
      out.push_back({pts[i], LandmarkKind::kTurn, 2.0});
    }
  }
  return out;
}

Place::Place(std::string name, geo::LatLon anchor)
    : name_(std::move(name)), frame_(anchor) {}

std::size_t Place::add_walkway(Walkway w) {
  if (w.line.size() < 2) throw std::invalid_argument("walkway needs >=2 pts");
  if (w.segments.empty()) {
    // Default: one corridor segment covering the whole line.
    w.segments.push_back({SegmentType::kCorridor, 0.0, w.line.length(),
                          default_corridor_width(SegmentType::kCorridor)});
  }
  walkways_.push_back(std::move(w));
  env_index_.reset();  // candidate lists are stale; rebuild on demand
  return walkways_.size() - 1;
}

void Place::add_access_point(AccessPoint ap) { aps_.push_back(ap); }
void Place::add_cell_tower(CellTower t) { towers_.push_back(t); }
void Place::add_landmark(Landmark l) { landmarks_.push_back(l); }
void Place::add_wall(geo::Segment wall) {
  walls_.push_back(wall);
  wall_index_.reset();  // rebuild lazily on next query
}

bool Place::crosses_wall(geo::Vec2 a, geo::Vec2 b) const {
  if (walls_.empty()) return false;
  prebuild_wall_index();
  return wall_index_->crosses(a, b);
}

void Place::prebuild_wall_index() const {
  if (wall_index_ == nullptr && !walls_.empty()) {
    wall_index_ =
        std::make_shared<const geo::SegmentIndex>(walls_, /*cell_size=*/8.0);
  }
}

void Place::add_turn_landmarks(double min_turn_rad) {
  for (const Walkway& w : walkways_) {
    for (const Landmark& l : w.turn_landmarks(min_turn_rad)) {
      // Outdoor turns are not usable landmarks: "it is hard to find
      // sufficient signatures outdoors" (paper Sec. V-B2) -- open spaces
      // have no walls or doorways to disambiguate a heading change.
      const geo::Projection proj = w.line.project(l.pos);
      if (!is_indoor(w.segment_at(proj.arclen).type)) continue;
      landmarks_.push_back(l);
    }
  }
}

geo::BBox Place::bounds() const {
  geo::BBox box;
  for (const Walkway& w : walkways_) box.extend(w.line.bounds());
  return box.inflated(10.0);
}

LocalEnvironment Place::environment_at(geo::Vec2 p) const {
  LocalEnvironment env;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < walkways_.size(); ++i) {
    const geo::Projection proj = walkways_[i].line.project(p);
    if (proj.distance < best) {
      best = proj.distance;
      const PathSegment& seg = walkways_[i].segment_at(proj.arclen);
      env.type = seg.type;
      env.corridor_width_m = seg.corridor_width_m;
      env.indoor = is_indoor(seg.type);
      env.sky_visibility = sim::sky_visibility(seg.type);
      env.walkway = i;
      env.arclen = proj.arclen;
      env.distance_to_walkway = proj.distance;
    }
  }
  // A point far off every walkway is treated as outdoors.
  if (best > 25.0) {
    env.type = SegmentType::kOpenSpace;
    env.corridor_width_m = default_corridor_width(SegmentType::kOpenSpace);
    env.indoor = false;
    env.sky_visibility = 1.0;
  }
  return env;
}

LocalEnvironment Place::environment_over(geo::Vec2 p,
                                         const std::uint32_t* cand,
                                         std::size_t count) const {
  // Mirrors environment_at exactly -- same strict `<` winner update in
  // ascending walkway order, same open-space fallback -- over a candidate
  // subset that provably contains the winner.
  LocalEnvironment env;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t i = cand[c];
    const geo::Projection proj = walkways_[i].line.project(p);
    if (proj.distance < best) {
      best = proj.distance;
      const PathSegment& seg = walkways_[i].segment_at(proj.arclen);
      env.type = seg.type;
      env.corridor_width_m = seg.corridor_width_m;
      env.indoor = is_indoor(seg.type);
      env.sky_visibility = sim::sky_visibility(seg.type);
      env.walkway = i;
      env.arclen = proj.arclen;
      env.distance_to_walkway = proj.distance;
    }
  }
  if (best > 25.0) {
    env.type = SegmentType::kOpenSpace;
    env.corridor_width_m = default_corridor_width(SegmentType::kOpenSpace);
    env.indoor = false;
    env.sky_visibility = 1.0;
  }
  return env;
}

LocalEnvironment Place::environment_over_edges(geo::Vec2 p,
                                               const std::uint32_t* cand,
                                               std::size_t count) const {
  // Mirrors environment_over -- itself a mirror of environment_at --
  // over a per-cell EDGE subset. Edges arrive ascending by (walkway,
  // edge), so the two-level scan below replays Polyline::project's
  // strict-< first-wins tie-break inside each walkway and then
  // environment_at's strict-< first-wins tie-break across walkways.
  // Pruned edges are strictly farther than the winner everywhere in the
  // cell (see EnvIndex::ecand), so every comparison that decides the
  // result sees identical operands and the output is bit-identical.
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_way = 0;
  double best_arc = 0.0;
  std::size_t c = 0;
  while (c < count) {
    const std::size_t i = cand[c] >> 16;
    const Walkway& way = walkways_[i];
    double wbest = std::numeric_limits<double>::infinity();
    double warc = 0.0;
    for (; c < count && (cand[c] >> 16) == i; ++c) {
      const std::size_t e = cand[c] & 0xFFFF;
      const EdgeFoot f = project_on_edge(p, way.line.points(), e);
      if (f.distance < wbest) {
        wbest = f.distance;
        warc = way.line.arclen_of_vertex(e) + f.t * std::sqrt(f.len2);
      }
    }
    if (wbest < best) {
      best = wbest;
      best_way = i;
      best_arc = warc;
    }
  }
  if (best == std::numeric_limits<double>::infinity()) {
    // No candidate at all: environment_at's empty-scan result.
    LocalEnvironment env;
    env.corridor_width_m = default_corridor_width(SegmentType::kOpenSpace);
    return env;
  }
  return environment_from(best_way, best_arc, best);
}

LocalEnvironment Place::environment_from(std::size_t walkway, double arclen,
                                         double distance) const {
  LocalEnvironment env;
  const PathSegment& seg = walkways_[walkway].segment_at(arclen);
  env.type = seg.type;
  env.corridor_width_m = seg.corridor_width_m;
  env.indoor = is_indoor(seg.type);
  env.sky_visibility = sim::sky_visibility(seg.type);
  env.walkway = walkway;
  env.arclen = arclen;
  env.distance_to_walkway = distance;
  if (distance > 25.0) {
    env.type = SegmentType::kOpenSpace;
    env.corridor_width_m = default_corridor_width(SegmentType::kOpenSpace);
    env.indoor = false;
    env.sky_visibility = 1.0;
  }
  return env;
}

LocalEnvironment Place::environment_at_fast(geo::Vec2 p) const {
  return env_view().environment(p);
}

LocalEnvironment Place::EnvView::environment(geo::Vec2 p) const {
  return environment(p, fine_cell(p));
}

LocalEnvironment Place::EnvView::environment(geo::Vec2 p,
                                             std::uint32_t cell) const {
  const EnvIndex* idx = idx_.get();
  if (idx == nullptr || !idx->box.contains(p)) {
    return place_->environment_at(p);
  }
  // Both cell sizes are powers of two (4 m and 0.5 m from the same
  // origin), so both divisions are exact and the coarse cell computed
  // here is the one that owned p's fine cell when its code was built.
  const std::size_t cx = std::min(
      idx->nx - 1, static_cast<std::size_t>((p.x - idx->box.min.x) / idx->cell));
  const std::size_t cy = std::min(
      idx->ny - 1, static_cast<std::size_t>((p.y - idx->box.min.y) / idx->cell));
  const std::size_t c = cy * idx->nx + cx;
  const std::uint8_t k = code(cell);
  if (k >= kFirstEdge) {
    // The one edge that can be nearest anywhere in the fine cell (see
    // prebuild_env_index): environment_over_edges' winner, computed from
    // that edge alone with the same expressions.
    const std::uint32_t packed = idx->ecand[idx->ebegin[c] + (k - kFirstEdge)];
    const std::size_t i = packed >> 16;
    const std::size_t e = packed & 0xFFFF;
    const geo::Polyline& line = place_->walkways_[i].line;
    const EdgeFoot f = project_on_edge(p, line.points(), e);
    return place_->environment_from(
        i, line.arclen_of_vertex(e) + f.t * std::sqrt(f.len2), f.distance);
  }
  if (!idx->ebegin.empty()) {
    return place_->environment_over_edges(p, idx->ecand.data() + idx->ebegin[c],
                                          idx->ebegin[c + 1] - idx->ebegin[c]);
  }
  return place_->environment_over(p, idx->candidates.data() + idx->begin[c],
                                  idx->begin[c + 1] - idx->begin[c]);
}

void Place::prebuild_env_index() const {
  if (env_index_ != nullptr || walkways_.empty()) return;
  auto idx = std::make_shared<EnvIndex>();
  idx->box = bounds();
  idx->cell = 4.0;
  idx->nx = static_cast<std::size_t>(
      std::max(1.0, std::ceil(idx->box.width() / idx->cell)));
  idx->ny = static_cast<std::size_t>(
      std::max(1.0, std::ceil(idx->box.height() / idx->cell)));
  // For any point p of a cell, |p - center| <= r (the half-diagonal), so
  // d_i(p) >= d_i(center) - r and d_min(p) <= d_min(center) + r. A
  // walkway with d_i(center) > d_min(center) + 2r is therefore strictly
  // farther than the closest one at EVERY p in the cell -- it can never
  // be environment_at's `<` winner and never changes the minimum, so
  // dropping it is exact. The epsilon only widens the keep set (always
  // safe) to absorb rounding in the center distances themselves.
  const double r = 0.5 * idx->cell * std::sqrt(2.0);
  // Per walkway: the narrowest corridor width over its segments. The
  // safe-cell test below must hold no matter which segment the nearest
  // projection lands on, so it uses this lower bound.
  std::vector<double> min_width(walkways_.size(), 0.0);
  for (std::size_t i = 0; i < walkways_.size(); ++i) {
    double mw = std::numeric_limits<double>::infinity();
    for (const PathSegment& s : walkways_[i].segments) {
      mw = std::min(mw, s.corridor_width_m);
    }
    min_width[i] = walkways_[i].segments.empty() ? 0.0 : mw;
  }
  // dist[] doubles as per-cell walkway distances in the coarse pass and
  // per-candidate distances in the refinement pass below; both uses are
  // complete within one cell iteration.
  std::vector<double> dist(walkways_.size());
  idx->begin.reserve(idx->nx * idx->ny + 1);
  // Edge-level candidates need every walkway to have a genuine edge list
  // and the (walkway, edge) pair to fit the 16+16-bit packing; degenerate
  // or oversized worlds keep ebegin empty and query the walkway lists.
  bool edges_ok = walkways_.size() < 0xFFFF;
  for (const Walkway& w : walkways_) {
    if (w.line.size() < 2 || w.line.size() - 1 > 0xFFFF) edges_ok = false;
  }
  if (edges_ok) idx->ebegin.reserve(idx->nx * idx->ny + 1);
  // The fine safe sub-grid divides each coarse cell into kRefine^2 exact
  // sub-cells (same origin, so any point of a fine cell lies inside the
  // coarse cell that owns it -- the candidate-set containment argument
  // below needs that). 0.5 m fine cells give a 0.354 m half-diagonal:
  // small enough that points within ~1.4 m of a 3.5 m corridor's
  // centerline certify as safe, where the 2.83 m coarse half-diagonal
  // certifies nothing.
  constexpr std::size_t kRefine = 8;
  idx->fine_cell = idx->cell / static_cast<double>(kRefine);
  idx->fnx = static_cast<std::size_t>(
      std::max(1.0, std::ceil(idx->box.width() / idx->fine_cell)));
  idx->fny = static_cast<std::size_t>(
      std::max(1.0, std::ceil(idx->box.height() / idx->fine_cell)));
  // Fine-cell indices are 32-bit lanes in EnvView::fine_cells; a venue
  // too large for that (~23 km square) goes without a fine grid and
  // every query takes the candidate scan.
  if (idx->fnx * idx->fny > 0x7FFFFFFFu) idx->fnx = idx->fny = 0;
  idx->fine_code.assign(idx->fnx * idx->fny, EnvView::kGeneral);
  const double rf = 0.5 * idx->fine_cell * std::sqrt(2.0);
  std::vector<double> edist;  // per-edge fine-center distances
  for (std::size_t cy = 0; cy < idx->ny; ++cy) {
    for (std::size_t cx = 0; cx < idx->nx; ++cx) {
      const geo::Vec2 center{
          idx->box.min.x + (static_cast<double>(cx) + 0.5) * idx->cell,
          idx->box.min.y + (static_cast<double>(cy) + 0.5) * idx->cell};
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < walkways_.size(); ++i) {
        dist[i] = walkways_[i].line.project(center).distance;
        best = std::min(best, dist[i]);
      }
      const double keep = best + 2.0 * r + 1e-9;
      idx->begin.push_back(static_cast<std::uint32_t>(idx->candidates.size()));
      const std::size_t cand_begin = idx->candidates.size();
      double max_half = 0.0;
      for (std::size_t i = 0; i < walkways_.size(); ++i) {
        if (dist[i] <= keep) {
          idx->candidates.push_back(static_cast<std::uint32_t>(i));
          max_half = std::max(max_half, 0.5 * min_width[i]);
        }
      }

      // Edge-level candidates under the same bound: any edge that is the
      // nearest edge (or an exact tie) at some p of the cell has center
      // distance at most d_e(p) + r = d_min(p) + r <= best + 2r, so
      // every edge kept here provably contains all possible winners and
      // ties -- environment_over_edges is then bit-identical to the full
      // projection. Walkways whose own minimum already exceeds the bound
      // are skipped without touching their edges.
      if (edges_ok) {
        idx->ebegin.push_back(static_cast<std::uint32_t>(idx->ecand.size()));
        for (std::size_t i = 0; i < walkways_.size(); ++i) {
          if (dist[i] > keep) continue;
          const std::vector<geo::Vec2>& pts = walkways_[i].line.points();
          for (std::size_t e = 0; e + 1 < pts.size(); ++e) {
            if (project_on_edge(center, pts, e).distance <= keep) {
              idx->ecand.push_back(
                  static_cast<std::uint32_t>((i << 16) | e));
            }
          }
        }
      }

      // Refine only the corridor band: a fine cell here can be safe only
      // if its winner's distance (>= best - r at any point of the coarse
      // cell) plus the fine half-diagonal fits inside some candidate's
      // half-width. Cells that fail this necessary condition stay
      // kGeneral without projecting anything.
      if (idx->fine_code.empty() || best - r + rf > max_half + 1e-9) continue;
      const std::size_t cand_count = idx->candidates.size() - cand_begin;
      const std::uint32_t* cand = idx->candidates.data() + cand_begin;
      const std::size_t ecand_begin = edges_ok ? idx->ebegin.back() : 0;
      const std::size_t ecand_count = idx->ecand.size() - ecand_begin;
      edist.resize(std::max(edist.size(), ecand_count));
      const std::size_t fx_end = std::min(idx->fnx, (cx + 1) * kRefine);
      const std::size_t fy_end = std::min(idx->fny, (cy + 1) * kRefine);
      for (std::size_t fy = cy * kRefine; fy < fy_end; ++fy) {
        for (std::size_t fx = cx * kRefine; fx < fx_end; ++fx) {
          const geo::Vec2 fc{
              idx->box.min.x +
                  (static_cast<double>(fx) + 0.5) * idx->fine_cell,
              idx->box.min.y +
                  (static_cast<double>(fy) + 0.5) * idx->fine_cell};
          // The winner at any p of this fine cell is a coarse candidate
          // (fine cell set-contained in the coarse cell) whose center
          // distance is within 2*rf of the fine best -- the same
          // triangle-inequality proof as above at the finer radius.
          double best_f = std::numeric_limits<double>::infinity();
          for (std::size_t c2 = 0; c2 < cand_count; ++c2) {
            dist[c2] = walkways_[cand[c2]].line.project(fc).distance;
            best_f = std::min(best_f, dist[c2]);
          }
          // corridor_safe_fast: whichever of those candidates wins at p,
          // its distance is at most dist + rf and the corridor width at
          // its projection at least its min_width. If every near
          // candidate satisfies dist + rf <= min_width / 2 (margin for
          // projection rounding), then beyond = max(0, d - width/2) is
          // exactly 0 and the corridor likelihood exactly 1.0 at every p
          // of the fine cell. The 25 m bound keeps the open-space
          // fallback (best > 25) from firing.
          const double keep_f = best_f + 2.0 * rf + 1e-9;
          bool fsafe = true;
          for (std::size_t c2 = 0; c2 < cand_count; ++c2) {
            if (dist[c2] > keep_f) continue;
            const double reach = dist[c2] + rf + 1e-9;
            if (reach > 0.5 * min_width[cand[c2]] || reach > 25.0) {
              fsafe = false;
            }
          }
          std::uint8_t& code = idx->fine_code[fy * idx->fnx + fx];
          if (fsafe) {
            code = EnvView::kSafe;
            continue;
          }
          // Unique-edge code: the same bound once more, per edge of the
          // coarse cell's list. For p in the fine cell, the edge u nearest
          // the center has d_u(p) <= best_e + rf, while any edge e with
          // d_e(center) > best_e + 2rf + 1e-9 has d_e(p) >= d_e(center) -
          // rf > d_u(p) + 1e-9. If u is the only edge inside the bound, it
          // is the strict nearest edge at every p of the cell (edges off
          // the coarse list are farther still), so both strict-< scans of
          // environment_over_edges pick it and its result is u's own
          // projection -- what EnvView::environment computes for the code.
          if (!edges_ok) continue;
          double best_e = std::numeric_limits<double>::infinity();
          for (std::size_t k = 0; k < ecand_count; ++k) {
            const std::uint32_t packed = idx->ecand[ecand_begin + k];
            edist[k] = project_on_edge(fc, walkways_[packed >> 16].line.points(),
                                       packed & 0xFFFF)
                           .distance;
            best_e = std::min(best_e, edist[k]);
          }
          const double keep_e = best_e + 2.0 * rf + 1e-9;
          std::size_t kept = 0, unique = 0;
          for (std::size_t k = 0; k < ecand_count; ++k) {
            if (edist[k] <= keep_e) {
              ++kept;
              unique = k;
            }
          }
          if (kept == 1 && unique <= 0xFFu - EnvView::kFirstEdge) {
            code = static_cast<std::uint8_t>(EnvView::kFirstEdge + unique);
          }
        }
      }
    }
  }
  idx->begin.push_back(static_cast<std::uint32_t>(idx->candidates.size()));
  if (edges_ok) {
    idx->ebegin.push_back(static_cast<std::uint32_t>(idx->ecand.size()));
  }
  env_index_ = std::move(idx);
}

bool Place::corridor_safe_fast(geo::Vec2 p) const {
  return env_view().corridor_safe(p);
}

bool Place::EnvView::corridor_safe(geo::Vec2 p) const {
  return code(fine_cell(p)) == kSafe;
}

std::uint32_t Place::EnvView::fine_cell(geo::Vec2 p) const {
  std::uint32_t cell;
  fine_cells(&p.x, &p.y, 1, &cell);
  return cell;
}

void Place::EnvView::fine_cells(const double* xs, const double* ys,
                                std::size_t n, std::uint32_t* cells) const {
  const EnvIndex* idx = idx_.get();
  if (idx == nullptr || idx->fine_code.empty()) {
    std::fill_n(cells, n, kNoCell);
    return;
  }
  // Lane-per-point: box.contains(), then the fine coordinates truncated
  // and clamped to the last row and column as environment() does for
  // the coarse ones. The integers are 32-bit because AVX2 converts f64
  // to i32 but not to i64; the grid has fewer than 2^31 cells.
  const geo::BBox box = idx->box;
  const double fine = idx->fine_cell;
  const auto nx = static_cast<std::int32_t>(idx->fnx);
  const std::int32_t x_last = nx - 1;
  const auto y_last = static_cast<std::int32_t>(idx->fny) - 1;
  UNILOC_PRAGMA_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    const double y = ys[i];
    const bool in =
        x >= box.min.x && x <= box.max.x && y >= box.min.y && y <= box.max.y;
    const double tx = in ? (x - box.min.x) / fine : 0.0;
    const double ty = in ? (y - box.min.y) / fine : 0.0;
    const std::int32_t fx = std::min(x_last, static_cast<std::int32_t>(tx));
    const std::int32_t fy = std::min(y_last, static_cast<std::int32_t>(ty));
    cells[i] = in ? static_cast<std::uint32_t>(fy * nx + fx) : kNoCell;
  }
}

std::uint8_t Place::EnvView::code(std::uint32_t cell) const {
  return cell == kNoCell ? kGeneral : idx_->fine_code[cell];
}

std::vector<const Landmark*> Place::landmarks_near(geo::Vec2 p,
                                                   double radius) const {
  std::vector<const Landmark*> out;
  for (const Landmark& l : landmarks_) {
    if (geo::distance(l.pos, p) <= radius) out.push_back(&l);
  }
  return out;
}

double Place::total_walkway_length() const {
  double total = 0.0;
  for (const Walkway& w : walkways_) total += w.line.length();
  return total;
}

}  // namespace uniloc::sim
