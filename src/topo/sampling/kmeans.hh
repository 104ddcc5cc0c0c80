/**
 * @file
 * Deterministic k-means over window feature vectors — stage 2 of the
 * representative-interval sampler (DESIGN.md §15).
 *
 * Everything is pinned for bit-identical results across --jobs values
 * and reruns (the clustering decides which trace windows get
 * simulated, so any nondeterminism here would violate the pipeline's
 * §9 determinism contract):
 *
 *  - seeded k-means++ initialisation drawn from the library Rng, run
 *    serially;
 *  - the assignment step parallelises over windows (per-window state
 *    only, no accumulation), ties broken towards the lowest centre
 *    index;
 *  - centroid recomputation and inertia folds run serially in window
 *    order, so FP summation order never depends on thread count;
 *  - a fixed iteration cap bounds the loop.
 *
 * The assignment step skips distances with Elkan's triangle-inequality
 * bounds (Elkan, ICML 2003). Each window keeps an upper bound on its
 * distance to its assigned centre and a lower bound on its distance to
 * every centre. After a centroid update, each window's upper bound
 * grows and its lower bound to centre c shrinks by how far the centre
 * moved. A centre is scanned only when its lower bound does not exceed
 * the window's upper bound; the upper bound is made exact (one
 * distance) before the first rival is scanned.
 *
 * The result equals a full scan bit for bit. Scanned centres use the
 * same squared-distance loop in the same dimension order, so every
 * computed d^2 is the full scan's, and the argmin over them takes the
 * lowest index among equal d^2. A skipped centre's d^2 exceeds the
 * current best's, so it can be neither the minimum nor tied with it.
 * That needs bounds on the exact distances that the rounded ones
 * cannot cross: every bound is widened by 1e-6 + 1e-9 * d when it is
 * set and each time it moves. Features lie in [0, 1] over a few dozen
 * dimensions, so a computed distance is off by far less than 1e-12,
 * and a centre is skipped only when its exact distance exceeds the
 * current best's by more than 2e-6. Equal computed distances are never
 * skipped.
 */

#ifndef TOPO_SAMPLING_KMEANS_HH
#define TOPO_SAMPLING_KMEANS_HH

#include <cstdint>
#include <vector>

#include "topo/sampling/window_features.hh"

namespace topo
{

/** K-means knobs. */
struct KMeansOptions
{
    /** Seed of the k-means++ initialisation. */
    std::uint64_t seed = 42;
    /** Lloyd iteration cap (convergence usually takes far fewer). */
    std::size_t max_iterations = 50;
};

/** One clustering of the windows. */
struct KMeansResult
{
    std::size_t k = 0;
    /** Cluster index of each window. */
    std::vector<std::uint32_t> assignment;
    /** Windows per cluster. */
    std::vector<std::uint64_t> cluster_size;
    /** Row-major k x dims centroids. */
    std::vector<double> centroids;
    /** Sum of squared distances to the assigned centroid. */
    double inertia = 0.0;
    /** Lloyd iterations actually run. */
    std::size_t iterations = 0;
};

/**
 * Cluster the feature rows into exactly @p k clusters (1 <= k <=
 * windows). Deterministic for a fixed (features, k, options) triple,
 * independent of the execution layer's jobs count.
 */
KMeansResult kmeansCluster(const WindowFeatureMatrix &features,
                           std::size_t k, const KMeansOptions &options);

/**
 * Choose k automatically with a BIC-style score: sweep k upwards from
 * 1 (capped at @p max_k and the window count), score each clustering
 * by model fit (log mean squared distance) plus a parameter-count
 * penalty, and keep the minimum. The sweep stops early after two
 * consecutive worsening scores — the elbow. Each k clusters with an
 * independent child seed, so the chosen k's result is reproducible in
 * isolation.
 */
KMeansResult kmeansAuto(const WindowFeatureMatrix &features,
                        std::size_t max_k, const KMeansOptions &options);

} // namespace topo

#endif // TOPO_SAMPLING_KMEANS_HH
