#include "topo/sampling/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "topo/exec/exec.hh"
#include "topo/obs/metrics.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"

namespace topo
{

namespace
{

inline double
sqDistance(const double *a, const double *b, std::size_t dims)
{
    double sum = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
        const double diff = a[d] - b[d];
        sum += diff * diff;
    }
    return sum;
}

/**
 * Windows per assignment task. Most centres are skipped, so a single
 * window is too little work to claim from the pool on its own.
 */
constexpr std::size_t kWindowsPerTask = 64;

/**
 * Slack added to a distance bound each time it is set or moved. The
 * features lie in [0, 1], so a computed distance is off by far less
 * than 1e-12; the slack keeps every bound valid for the exact distance
 * and skips a centre only when its distance exceeds the best one's by
 * more than rounding could bridge.
 */
inline double
boundSlack(double d)
{
    return 1e-6 + 1e-9 * d;
}

/**
 * Seeded k-means++ initialisation: first center uniform, subsequent
 * centers D^2-sampled, all on the calling thread: one distance per
 * window is too little work to hand to the pool. The cumulative-sum
 * draw runs in window order, so the chosen centers depend only on
 * (features, k, seed).
 */
std::vector<double>
seedCenters(const WindowFeatureMatrix &features, std::size_t k, Rng &rng)
{
    const std::size_t n = features.windows;
    const std::size_t dims = features.dims;
    std::vector<double> centers(k * dims, 0.0);
    std::vector<bool> is_center(n, false);

    const std::size_t first = static_cast<std::size_t>(
        rng.nextBelow(static_cast<std::uint64_t>(n)));
    for (std::size_t d = 0; d < dims; ++d)
        centers[d] = features.row(first)[d];
    is_center[first] = true;

    std::vector<double> dist2(n,
                              std::numeric_limits<double>::infinity());
    for (std::size_t c = 1; c < k; ++c) {
        const double *latest = &centers[(c - 1) * dims];
        for (std::size_t w = 0; w < n; ++w) {
            const double d2 = sqDistance(features.row(w), latest, dims);
            if (d2 < dist2[w])
                dist2[w] = d2;
        }
        double total = 0.0;
        for (std::size_t w = 0; w < n; ++w)
            total += dist2[w];
        std::size_t pick = n;
        if (total > 0.0) {
            const double r = rng.nextDouble() * total;
            double cumulative = 0.0;
            for (std::size_t w = 0; w < n; ++w) {
                cumulative += dist2[w];
                if (cumulative > r) {
                    pick = w;
                    break;
                }
            }
        }
        if (pick == n) {
            // All remaining windows coincide with existing centers (or
            // FP rounding exhausted the draw): take the lowest-index
            // window that is not yet a center; duplicates are fine
            // when every window already is one.
            pick = 0;
            for (std::size_t w = 0; w < n; ++w) {
                if (!is_center[w]) {
                    pick = w;
                    break;
                }
            }
        }
        for (std::size_t d = 0; d < dims; ++d)
            centers[c * dims + d] = features.row(pick)[d];
        is_center[pick] = true;
    }
    return centers;
}

/**
 * Elkan's triangle-inequality bounds for one Lloyd run (kmeans.hh):
 * per window, an upper bound on its distance to its assigned centre
 * and a lower bound on its distance to every centre; per centre, how
 * far it last moved. Every bound is widened by boundSlack when it is
 * set and when it is moved.
 */
class ElkanBounds
{
  public:
    ElkanBounds(std::size_t windows, std::size_t k, std::size_t dims)
        : k_(k), dims_(dims),
          upper_(windows, std::numeric_limits<double>::infinity()),
          lower_(windows * k, 0.0), shift_(k, 0.0)
    {
    }

    /**
     * Nearest of the row-major @p centroids to window @p w's @p row,
     * ties to the lowest index, given the window's current centre
     * @p best. A centre whose lower bound exceeds the upper bound is
     * farther than the current best by more than rounding could
     * bridge, so it is skipped; every other distance is computed with
     * sqDistance, as a full scan would. Adds the number computed to
     * @p evaluated.
     */
    std::uint32_t
    nearest(std::size_t w, const double *row, const double *centroids,
            std::uint32_t best, std::uint64_t &evaluated)
    {
        double *low = &lower_[w * k_];
        for (std::size_t c = 0; c < k_; ++c)
            low[c] -= shift_[c];
        double bound = upper_[w] + shift_[best];
        double best_d2 = 0.0;
        bool tight = false;
        for (std::size_t c = 0; c < k_; ++c) {
            if (c == best || low[c] > bound)
                continue;
            if (!tight) {
                // Tighten the upper bound before computing any rival.
                best_d2 = sqDistance(row, &centroids[best * dims_], dims_);
                ++evaluated;
                const double d = std::sqrt(best_d2);
                bound = d + boundSlack(d);
                low[best] = d - boundSlack(d);
                tight = true;
                if (low[c] > bound)
                    continue;
            }
            const double d2 = sqDistance(row, &centroids[c * dims_], dims_);
            ++evaluated;
            const double d = std::sqrt(d2);
            low[c] = d - boundSlack(d);
            if (d2 < best_d2 || (d2 == best_d2 && c < best)) {
                best = static_cast<std::uint32_t>(c);
                best_d2 = d2;
                bound = d + boundSlack(d);
            }
        }
        upper_[w] = bound;
        return best;
    }

    /** Record how far each centre moved from @p before to @p after;
     *  the next nearest() call of each window applies it. */
    void
    moved(const std::vector<double> &before, const std::vector<double> &after)
    {
        for (std::size_t c = 0; c < k_; ++c) {
            const double d = std::sqrt(
                sqDistance(&before[c * dims_], &after[c * dims_], dims_));
            shift_[c] = d + boundSlack(d);
        }
    }

  private:
    std::size_t k_;
    std::size_t dims_;
    std::vector<double> upper_;
    std::vector<double> lower_;
    std::vector<double> shift_;
};

} // namespace

KMeansResult
kmeansCluster(const WindowFeatureMatrix &features, std::size_t k,
              const KMeansOptions &options)
{
    const std::size_t n = features.windows;
    const std::size_t dims = features.dims;
    require(n > 0, "kmeansCluster: no windows");
    require(k >= 1 && k <= n,
            "kmeansCluster: k must be in [1, windows]");

    Rng rng(options.seed);
    KMeansResult result;
    result.k = k;
    result.centroids = seedCenters(features, k, rng);
    result.assignment.assign(n, 0);

    ElkanBounds bounds(n, k, dims);
    std::vector<double> previous;
    std::vector<std::uint64_t> evaluated(n, 0);
    std::vector<std::uint32_t> next(n, 0);
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        // Assignment: nearest centroid, ties to the lowest centre index,
        // skipping the centres the bounds rule out. Per-window state
        // only — jobs-invariant.
        const std::size_t tasks =
            (n + kWindowsPerTask - 1) / kWindowsPerTask;
        parallelFor(tasks, [&](std::size_t task) {
            const std::size_t end =
                std::min(n, (task + 1) * kWindowsPerTask);
            for (std::size_t w = task * kWindowsPerTask; w < end; ++w)
                next[w] = bounds.nearest(w, features.row(w),
                                         result.centroids.data(),
                                         result.assignment[w],
                                         evaluated[w]);
        });
        result.iterations = iter + 1;
        const bool changed = next != result.assignment;
        result.assignment = next;
        if (!changed && iter > 0)
            break;

        // Update: serial accumulation in window order pins the FP
        // summation order. Empty clusters keep their previous
        // centroid (they can be re-captured by a later assignment).
        previous = result.centroids;
        std::vector<double> sums(k * dims, 0.0);
        std::vector<std::uint64_t> counts(k, 0);
        for (std::size_t w = 0; w < n; ++w) {
            const std::uint32_t c = result.assignment[w];
            const double *row = features.row(w);
            double *sum = &sums[static_cast<std::size_t>(c) * dims];
            for (std::size_t d = 0; d < dims; ++d)
                sum[d] += row[d];
            ++counts[c];
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0)
                continue;
            const double inv = 1.0 / static_cast<double>(counts[c]);
            for (std::size_t d = 0; d < dims; ++d)
                result.centroids[c * dims + d] = sums[c * dims + d] * inv;
        }
        if (!changed)
            break;
        bounds.moved(previous, result.centroids);
    }
    std::uint64_t distances = 0;
    for (const std::uint64_t evals : evaluated)
        distances += evals;
    MetricsRegistry::current()
        .counter("sampling.kmeans_distances")
        .add(distances);

    result.cluster_size.assign(k, 0);
    result.inertia = 0.0;
    for (std::size_t w = 0; w < n; ++w) {
        const std::uint32_t c = result.assignment[w];
        ++result.cluster_size[c];
        result.inertia += sqDistance(
            features.row(w),
            &result.centroids[static_cast<std::size_t>(c) * dims], dims);
    }
    return result;
}

KMeansResult
kmeansAuto(const WindowFeatureMatrix &features, std::size_t max_k,
           const KMeansOptions &options)
{
    const std::size_t n = features.windows;
    require(n > 0, "kmeansAuto: no windows");
    require(max_k >= 1, "kmeansAuto: zero max_k");
    const std::size_t cap = max_k < n ? max_k : n;
    const double dn = static_cast<double>(n);
    const double dd = static_cast<double>(features.dims);

    KMeansResult best;
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t worse_streak = 0;
    const Rng parent(options.seed);
    for (std::size_t k = 1; k <= cap; ++k) {
        KMeansOptions child = options;
        child.seed = parent.split(static_cast<std::uint64_t>(k)).next();
        KMeansResult candidate = kmeansCluster(features, k, child);
        // BIC-style score under a spherical-Gaussian model: the data
        // term is n * d * log(mean squared distance) — the d factor
        // matters, dropping it makes the parameter penalty dominate
        // and collapses every sweep to k = 1 — and the complexity
        // term charges (centroid params + mixture weights) * log n.
        // Lower is better; an eps floor keeps log() finite when a
        // clustering is exact.
        const double mse =
            candidate.inertia / dn > 1e-12 ? candidate.inertia / dn
                                           : 1e-12;
        const double score = dn * dd * std::log(mse) +
                             static_cast<double>(k) * (dd + 1.0) *
                                 std::log(dn);
        if (score < best_score) {
            best_score = score;
            best = std::move(candidate);
            worse_streak = 0;
        } else if (++worse_streak >= 2) {
            break;
        }
    }
    return best;
}

} // namespace topo
