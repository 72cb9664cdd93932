#include "distance/eged_fast.h"

#include <algorithm>
#include <cmath>

#include "distance/simd/cells.h"

namespace strg::dist {

static_assert(kFeatureDim == simd::kCellDim,
              "simd cell helpers must agree on the feature dimension");
static_assert(kFeatureDim <= simd::kPaddedDim,
              "padded stride must fit a feature point");

namespace {

/// Relative safety margin applied to every analytic lower bound. The bounds
/// are admissible in exact arithmetic; the DP accumulates with ~1e-16
/// relative rounding per step, so shaving ~1e-12 keeps them admissible in
/// floating point with margin to spare while costing nothing measurable in
/// pruning power.
inline double Shave(double lb) {
  return lb <= 0.0 ? 0.0 : lb * (1.0 - 1e-12);
}

inline double Min3(double x, double y, double z) {
  double v = x;
  if (y < v) v = y;
  if (z < v) v = z;
  return v;
}

struct TlsFlatScratch {
  FlatSequence a, b;
};

TlsFlatScratch& ThreadLocalFlats() {
  static thread_local TlsFlatScratch scratch;
  return scratch;
}

}  // namespace

void FlatSequence::Assign(const Sequence& seq, const FeatureVec& g) {
  const size_t n = seq.size();
  values_.resize(kStride * n);
  transposed_.resize(kFeatureDim * n);
  gap_costs_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double* p = values_.data() + i * kStride;
    for (size_t k = 0; k < kFeatureDim; ++k) {
      p[k] = seq[i][k];
      transposed_[k * n + i] = seq[i][k];
    }
    for (size_t k = kFeatureDim; k < kStride; ++k) p[k] = 0.0;
  }
  // Per-point gap costs through the dispatched batch kernel: the per-lane
  // dim order matches PointDistance, and (q - p)^2 == (p - q)^2 exactly, so
  // the values are bit-identical to the former scalar loop at every tier.
  simd::ActiveOps().point_distance_batch(g.data(), values_.data(), n,
                                         gap_costs_.data());
  summary_ = LbSummary{};
  summary_.length = n;
  // Left-to-right accumulation, matching the DP's first row exactly, so
  // gap_mass() is bit-identical to EgedMetric(seq, {}).
  for (size_t i = 0; i < n; ++i) summary_.gap_mass += gap_costs_[i];
  if (n > 0) {
    summary_.gap_front = gap_costs_[0];
    summary_.gap_back = gap_costs_[n - 1];
    summary_.front = seq.front();
    summary_.back = seq.back();
  }
}

void ReversedQuery::Assign(const FlatSequence& a) {
  size_ = a.size();
  t_.resize(kFeatureDim * size_);
  gaps_.resize(size_);
  const double* at = a.transposed();
  const size_t stride = a.t_stride();
  for (size_t k = 0; k < kFeatureDim; ++k) {
    const double* src = at + k * stride;
    double* dst = t_.data() + k * size_;
    for (size_t c = 0; c < size_; ++c) dst[c] = src[size_ - 1 - c];
  }
  const double* g = a.gap_costs();
  for (size_t c = 0; c < size_; ++c) gaps_[c] = g[size_ - 1 - c];
}

EgedWorkspace& ThreadLocalEgedWorkspace() {
  static thread_local EgedWorkspace ws;
  return ws;
}

double EgedLowerBound(const LbSummary& a, const LbSummary& b) {
  // Gap-mass bound: EGED_M is a metric (Theorem 2) and EGED_M(x, {}) is the
  // gap mass, so |gap_mass(a) - gap_mass(b)| <= EGED_M(a, b) by the
  // triangle inequality through the empty sequence.
  double lb = std::fabs(a.gap_mass - b.gap_mass);
  if (a.length != 0 && b.length != 0) {
    // Endpoint bound: the first edit op of any alignment consumes a_1 or
    // b_1 (or both), costing at least min(d(a1,b1), d(a1,g), d(b1,g)); when
    // max(m, n) >= 2 the alignment has at least two ops and its distinct
    // last op likewise pays for a_m or b_n.
    const double first =
        Min3(PointDistance(a.front, b.front), a.gap_front, b.gap_front);
    double endpoint = first;
    if (a.length >= 2 || b.length >= 2) {
      const double last =
          Min3(PointDistance(a.back, b.back), a.gap_back, b.gap_back);
      endpoint = first + last;
    }
    lb = std::max(lb, endpoint);
  }
  return Shave(lb);
}

bool EgedCascadePrunes(const LbSummary& a, const LbSummary& b, double tau,
                       double* lb, EgedKernelStats* stats) {
  if (!(tau < std::numeric_limits<double>::infinity()) || a.length == 0 ||
      b.length == 0) {
    return false;
  }
  const double bound = EgedLowerBound(a, b);
  if (!(bound > tau)) return false;
  if (stats != nullptr) ++stats->lb_prunes;
  *lb = bound;
  return true;
}

namespace {

/// Shared DP body with band pruning (the pruned-DTW idea of Silva &
/// Batista, adapted to the EGED/ERP recurrence). Identical arithmetic, in
/// identical order, to the reference EgedMetric (eged.cpp) for every cell
/// whose true value is <= tau — which is what makes a completed run return
/// the reference result bit-for-bit whenever the true distance is <= tau.
///
/// Band invariant: [pb, pe] spans every column of the previous row whose
/// computed value is <= tau; columns outside behave as +infinity. A cell
/// with true value <= tau draws its optimal predecessor from a cell with
/// value <= tau (edit costs are non-negative), which by induction lies
/// inside the band and is exact; the remaining candidates are >= their true
/// values, which are >= the optimal one, so the three-way min — and hence
/// the cell — is computed exactly (ties share the same value, so this holds
/// bitwise). Each row is scanned from pb and stops once it is both past
/// pe + 1 (no finite vertical/diagonal candidates remain) and above tau
/// (the horizontal chain only accumulates non-negative gap costs).
///
/// When a row ends with no cell <= tau, or the final cell falls outside the
/// last band, every path to (m, n) costs more than tau: the DP abandons and
/// returns nextafter(tau) — the smallest value that is both > tau and <= d
/// for any true distance d > tau.
double BoundedDp(const FlatSequence& a, const FlatSequence& b, double tau,
                 EgedWorkspace* ws, bool* abandoned) {
  const size_t m = a.size(), n = b.size();
  const double* agap = a.gap_costs();
  const double* bgap = b.gap_costs();
  const double* av = a.points();
  const double* bv = b.points();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  double* prev = nullptr;
  double* cur = nullptr;
  ws->Rows(n + 1, &prev, &cur);

  // First row accumulates non-negative gap costs, so its band is a prefix.
  prev[0] = 0.0;
  size_t pb = 0, pe = n;
  for (size_t j = 1; j <= n; ++j) {
    prev[j] = prev[j - 1] + bgap[j - 1];
    if (prev[j] > tau) {
      pe = j - 1;
      break;
    }
  }

  for (size_t i = 1; i <= m; ++i) {
    const double ga_i = agap[i - 1];
    const double* ai = av + (i - 1) * FlatSequence::kStride;
    size_t cb = n + 1;  // first column of this row's band
    size_t ce = 0;      // last column of this row's band
    double left;        // cur[j - 1], tracked in a register
    size_t j;
    auto note = [&](double v) {
      if (v <= tau) {
        if (cb > j) cb = j;
        ce = j;
      }
    };
    if (pb == 0) {
      left = prev[0] + ga_i;
      cur[0] = left;
      j = 0;
      note(left);
      j = 1;
    } else {
      // Columns left of pb have only +inf predecessors. At j = pb the
      // diagonal (prev[pb-1]) and horizontal (cur[pb-1]) candidates are
      // both +inf, so the cell reduces to the vertical deletion — no point
      // distance needed.
      j = pb;
      left = prev[pb] + ga_i;
      cur[pb] = left;
      note(left);
      j = pb + 1;
    }
    // In-band phase: all three predecessors lie inside the previous band.
    // Interior band cells can still individually exceed tau; when every
    // candidate already does, the cell can never re-enter the band — its
    // value is only ever read as "+inf by a successor", so the point
    // distance (and its sqrt) is skipped outright.
    for (; j <= pe; ++j) {
      const double diag = prev[j - 1];
      const double del_a = prev[j] + ga_i;
      const double del_b = left + bgap[j - 1];
      if (diag > tau && del_a > tau && del_b > tau) {
        cur[j] = kInf;
        left = kInf;
        continue;
      }
      const double* bj = bv + (j - 1) * FlatSequence::kStride;
      double s = 0.0;
      for (size_t k = 0; k < kFeatureDim; ++k) {
        const double dk = ai[k] - bj[k];
        s += dk * dk;
      }
      const double subst = diag + std::sqrt(s);
      double v = subst;
      if (del_a < v) v = del_a;
      if (del_b < v) v = del_b;
      cur[j] = v;
      left = v;
      note(v);
    }
    // Boundary column pe + 1: the vertical candidate (prev[pe+1]) is
    // outside the band, so the cell is min(subst, horizontal).
    if (j == pe + 1 && j <= n) {
      const double* bj = bv + (j - 1) * FlatSequence::kStride;
      double s = 0.0;
      for (size_t k = 0; k < kFeatureDim; ++k) {
        const double dk = ai[k] - bj[k];
        s += dk * dk;
      }
      const double subst = prev[j - 1] + std::sqrt(s);
      const double del_b = left + bgap[j - 1];
      double v = subst < del_b ? subst : del_b;
      cur[j] = v;
      left = v;
      note(v);
      ++j;
      // Horizontal tail: beyond pe + 1 every diagonal/vertical candidate is
      // +inf, so cells are just left + gap — no point distance, and the
      // chain only grows, so it stops at the first value above tau.
      for (; j <= n && left <= tau; ++j) {
        left += bgap[j - 1];
        cur[j] = left;
        note(left);
      }
    }
    if (cb > n) {
      *abandoned = true;
      return std::nextafter(tau, kInf);
    }
    pb = cb;
    pe = ce;
    std::swap(prev, cur);
  }
  if (pe == n) {
    *abandoned = false;
    return prev[n];
  }
  // The corner cell exceeded tau (or was never reached).
  *abandoned = true;
  return std::nextafter(tau, kInf);
}

/// Vector-tier twin of BoundedDp. Same band bookkeeping, but each row's
/// in-band region runs in two passes: a vectorized phase 1 computing
///   cur[j] = min(prev[j-1] + dist(a_i, b_j), prev[j] + ga)
/// through ops.eged_row (per-lane arithmetic in the scalar order, so phase-1
/// values are bitwise identical to the scalar candidates), then a scalar
/// phase 2 folding the loop-carried horizontal deletion
///   cur[j] = min(cur[j], cur[j-1] + bgap[j-1]).
/// min-reassociation is value-exact, so every in-band cell matches the
/// scalar min3 bitwise.
///
/// The one intentional divergence: the scalar loop skips the point distance
/// (writing +inf) when all three candidates already exceed tau, while the
/// vector path computes every in-band cell. Affected cells are > tau under
/// both schemes, so they are never `note`d — the band evolution, abandon
/// decisions, and every value the next row actually reads (indices
/// [pb, pe], all <= tau) stay identical, and so does the result.
double BoundedDpVec(const FlatSequence& a, const FlatSequence& b, double tau,
                    EgedWorkspace* ws, bool* abandoned,
                    const simd::KernelOps& ops) {
  const size_t m = a.size(), n = b.size();
  const double* agap = a.gap_costs();
  const double* bgap = b.gap_costs();
  const double* av = a.points();
  const double* bv = b.points();
  const double* bt = b.transposed();
  const size_t bstride = b.t_stride();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  double* prev = nullptr;
  double* cur = nullptr;
  ws->Rows(n + 1, &prev, &cur);

  prev[0] = 0.0;
  size_t pb = 0, pe = n;
  for (size_t j = 1; j <= n; ++j) {
    prev[j] = prev[j - 1] + bgap[j - 1];
    if (prev[j] > tau) {
      pe = j - 1;
      break;
    }
  }

  for (size_t i = 1; i <= m; ++i) {
    const double ga_i = agap[i - 1];
    const double* ai = av + (i - 1) * FlatSequence::kStride;
    size_t cb = n + 1;
    size_t ce = 0;
    double left;
    size_t j;
    auto note = [&](double v) {
      if (v <= tau) {
        if (cb > j) cb = j;
        ce = j;
      }
    };
    if (pb == 0) {
      left = prev[0] + ga_i;
      cur[0] = left;
      j = 0;
      note(left);
      j = 1;
    } else {
      j = pb;
      left = prev[pb] + ga_i;
      cur[pb] = left;
      note(left);
      j = pb + 1;
    }
    // Narrow rows are not worth the two-pass overhead (vector ramp-up plus
    // a second sweep): run the scalar single-pass body — including its
    // >tau cell-skip — below the width threshold. Both bodies produce
    // identical band evolution and identical noted values, so the adaptive
    // choice is invisible in the results.
    constexpr size_t kMinVecWidth = 12;
    if (j <= pe && pe - j + 1 >= kMinVecWidth) {
      // Phase 1 (vectorized), in place: cur[j] = min(subst, vertical).
      ops.eged_row(ai, bt, bstride, prev, ga_i, j, pe, cur);
      // Phase 2 (scalar): fold the horizontal chain.
      for (; j <= pe; ++j) {
        double v = cur[j];
        const double del_b = left + bgap[j - 1];
        if (del_b < v) v = del_b;
        cur[j] = v;
        left = v;
        note(v);
      }
    } else {
      for (; j <= pe; ++j) {
        const double diag = prev[j - 1];
        const double del_a = prev[j] + ga_i;
        const double del_b = left + bgap[j - 1];
        if (diag > tau && del_a > tau && del_b > tau) {
          cur[j] = kInf;
          left = kInf;
          continue;
        }
        const double* bj = bv + (j - 1) * FlatSequence::kStride;
        double s = 0.0;
        for (size_t k = 0; k < kFeatureDim; ++k) {
          const double dk = ai[k] - bj[k];
          s += dk * dk;
        }
        const double subst = diag + std::sqrt(s);
        double v = subst;
        if (del_a < v) v = del_a;
        if (del_b < v) v = del_b;
        cur[j] = v;
        left = v;
        note(v);
      }
    }
    if (j == pe + 1 && j <= n) {
      const double* bj = bv + (j - 1) * FlatSequence::kStride;
      double s = 0.0;
      for (size_t k = 0; k < kFeatureDim; ++k) {
        const double dk = ai[k] - bj[k];
        s += dk * dk;
      }
      const double subst = prev[j - 1] + std::sqrt(s);
      const double del_b = left + bgap[j - 1];
      double v = subst < del_b ? subst : del_b;
      cur[j] = v;
      left = v;
      note(v);
      ++j;
      for (; j <= n && left <= tau; ++j) {
        left += bgap[j - 1];
        cur[j] = left;
        note(left);
      }
    }
    if (cb > n) {
      *abandoned = true;
      return std::nextafter(tau, kInf);
    }
    pb = cb;
    pe = ce;
    std::swap(prev, cur);
  }
  if (pe == n) {
    *abandoned = false;
    return prev[n];
  }
  *abandoned = true;
  return std::nextafter(tau, kInf);
}

/// Wavefront twin of BoundedDp for the wide-band regime. Sweeps the DP
/// matrix by anti-diagonals: every cell of one diagonal depends only on the
/// previous two diagonals, so the eged_diag kernel evaluates whole cells —
/// distance, sqrt, and the three-way min — with NO loop-carried chain (the
/// chain that limits the row-split form to the latency of one add+min per
/// column). Each cell's expression tree is exactly the reference one, so
/// every cell value — evaluation order notwithstanding — is bitwise
/// identical to the full reference DP, and the final corner IS the exact
/// distance d.
///
/// Bounded-contract harmonization with BoundedDp: the scalar twin returns
/// the exact d whenever d <= tau (the corner is then computed exactly and
/// noted) and nextafter(tau) whenever d > tau (every computed cell is >=
/// its true value, so the corner can never be noted). Returning
/// d <= tau ? d : nextafter(tau) here therefore matches BoundedDp bitwise —
/// including the abandoned flag and hence the stats — at every tau.
double BoundedDpWavefront(const FlatSequence& a, const FlatSequence& b,
                          double tau, EgedWorkspace* ws, bool* abandoned,
                          const simd::KernelOps& ops,
                          const ReversedQuery& ra) {
  const size_t m = a.size(), n = b.size();
  const double* agap = a.gap_costs();
  const double* bgap = b.gap_costs();
  const double* bt = b.transposed();
  const size_t bstride = b.t_stride();
  const double* art = ra.t();
  const size_t astride = ra.stride();
  const double* argap = ra.gaps();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Three rolling anti-diagonals, indexed by column j.
  double* dm2 = nullptr;
  double* dm1 = nullptr;
  double* dd = nullptr;
  ws->Rows3(n + 1, &dm2, &dm1, &dd);

  // Diagonals 0 and 1 are pure boundary cells; the prefix accumulators run
  // in the same left-to-right order as the reference first row and column
  // (0.0 + x == x exactly, so seeding with the first gap is identical).
  dm2[0] = 0.0;              // cell (0, 0)
  double col_acc = agap[0];  // cell (1, 0)
  double row_acc = bgap[0];  // cell (0, 1)
  dm1[0] = col_acc;
  dm1[1] = row_acc;

  for (size_t d = 2; d <= m + n; ++d) {
    if (d <= m) {
      col_acc += agap[d - 1];
      dd[0] = col_acc;  // cell (d, 0)
    }
    if (d <= n) {
      row_acc += bgap[d - 1];
      dd[d] = row_acc;  // cell (0, d)
    }
    // Interior cells (i = d - j, j) for j in [jb, je]. Cell c of the kernel
    // is column j = jb + c; its a-side point a_{d-j} sits at column
    // m - (d - j) of the reversed mirror, which ascends with c.
    const size_t jb = d > m ? d - m : 1;
    const size_t je = std::min(n, d - 1);
    if (jb <= je) {
      const size_t t0 = jb + m - d;
      ops.eged_diag(art + t0, astride, bt + (jb - 1), bstride, argap + t0,
                    bgap + (jb - 1), dm2 + (jb - 1), dm1 + jb,
                    dm1 + (jb - 1), je - jb + 1, dd + jb);
    }
    double* tmp = dm2;
    dm2 = dm1;
    dm1 = dd;
    dd = tmp;
  }
  const double v = dm1[n];
  if (v <= tau) {
    *abandoned = false;
    return v;
  }
  *abandoned = true;
  return std::nextafter(tau, kInf);
}

/// Wavefront pays for all m*n cells, so it wins exactly when band pruning
/// cannot bite: tau at least both gap masses means the entire first row and
/// column start inside the band (their prefix sums are bounded by the
/// masses), the signature of the wide-band regime. tau = +inf (the exact
/// kernel) always qualifies. Tiny sequences stay on the row path, whose
/// per-row overhead is lower.
inline bool WavefrontProfitable(const FlatSequence& a, const FlatSequence& b,
                                double tau) {
  if (a.size() < 4 || b.size() < 4) return false;
  return a.gap_mass() <= tau && b.gap_mass() <= tau;
}

/// Routes one bounded DP through the active tier's kernel. The scalar tier
/// keeps the original single-pass loop (its >tau cell-skip saves sqrts that
/// the two-pass form cannot); vector tiers take the chain-free wavefront in
/// the wide-band regime and the banded two-pass twin otherwise. All three
/// produce bitwise-identical results at every tau, so routing is purely a
/// speed decision.
inline double BoundedDpDispatch(const FlatSequence& a, const FlatSequence& b,
                                double tau, EgedWorkspace* ws,
                                bool* abandoned, const simd::KernelOps& ops,
                                const ReversedQuery* rev = nullptr) {
  if (ops.tier == simd::Tier::kScalar) {
    return BoundedDp(a, b, tau, ws, abandoned);
  }
  if (WavefrontProfitable(a, b, tau)) {
    if (rev == nullptr) {
      ws->ReversedScratch().Assign(a);
      rev = &ws->ReversedScratch();
    }
    return BoundedDpWavefront(a, b, tau, ws, abandoned, ops, *rev);
  }
  return BoundedDpVec(a, b, tau, ws, abandoned, ops);
}

}  // namespace

double EgedMetricFlat(const FlatSequence& a, const FlatSequence& b,
                      EgedWorkspace* ws) {
  if (a.empty()) return b.gap_mass();
  if (b.empty()) return a.gap_mass();
  bool abandoned = false;
  return BoundedDpDispatch(a, b, std::numeric_limits<double>::infinity(), ws,
                           &abandoned, simd::ActiveOps());
}

double EgedMetricBounded(const FlatSequence& a, const FlatSequence& b,
                         double tau, EgedWorkspace* ws,
                         EgedKernelStats* stats) {
  if (a.empty() || b.empty()) {
    if (stats != nullptr) ++stats->dp_evals;
    return a.empty() ? b.gap_mass() : a.gap_mass();
  }
  double lb = 0.0;
  if (EgedCascadePrunes(a.summary(), b.summary(), tau, &lb, stats)) return lb;
  if (stats != nullptr) ++stats->dp_evals;
  bool abandoned = false;
  const double v =
      BoundedDpDispatch(a, b, tau, ws, &abandoned, simd::ActiveOps());
  if (abandoned && stats != nullptr) ++stats->early_abandons;
  return v;
}

void EgedBatchBounded(const FlatSequence& query,
                      const FlatSequence* const* candidates,
                      const double* taus, size_t n, double* out,
                      EgedWorkspace* ws, EgedKernelStats* stats) {
  // The dispatch table and the query's flat rows are resolved/touched once;
  // each iteration is then the exact EgedMetricBounded body, so values and
  // stats match the one-at-a-time path bitwise. The reversed-query mirror
  // the wavefront route needs is likewise built once for the whole batch.
  const simd::KernelOps& ops = simd::ActiveOps();
  const ReversedQuery* rev = nullptr;
  if (ops.tier != simd::Tier::kScalar && !query.empty()) {
    ws->ReversedScratch().Assign(query);
    rev = &ws->ReversedScratch();
  }
  for (size_t i = 0; i < n; ++i) {
    const FlatSequence& b = *candidates[i];
    const double tau = taus[i];
    if (query.empty() || b.empty()) {
      if (stats != nullptr) ++stats->dp_evals;
      out[i] = query.empty() ? b.gap_mass() : query.gap_mass();
      continue;
    }
    if (EgedCascadePrunes(query.summary(), b.summary(), tau, &out[i],
                          stats)) {
      continue;
    }
    if (stats != nullptr) ++stats->dp_evals;
    bool abandoned = false;
    out[i] = BoundedDpDispatch(query, b, tau, ws, &abandoned, ops, rev);
    if (abandoned && stats != nullptr) ++stats->early_abandons;
  }
}

void EgedLowerBoundBatch(const FlatSequence& query,
                         const FlatSequence* const* candidates, size_t n,
                         double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = EgedLowerBound(query.summary(), candidates[i]->summary());
  }
}

double EgedMetricFast(const Sequence& a, const Sequence& b,
                      const FeatureVec& g) {
  TlsFlatScratch& scratch = ThreadLocalFlats();
  scratch.a.Assign(a, g);
  scratch.b.Assign(b, g);
  return EgedMetricFlat(scratch.a, scratch.b, &ThreadLocalEgedWorkspace());
}

double EgedMetricBoundedSeq(const Sequence& a, const Sequence& b, double tau,
                            const FeatureVec& g) {
  TlsFlatScratch& scratch = ThreadLocalFlats();
  scratch.a.Assign(a, g);
  scratch.b.Assign(b, g);
  return EgedMetricBounded(scratch.a, scratch.b, tau,
                           &ThreadLocalEgedWorkspace());
}

}  // namespace strg::dist
