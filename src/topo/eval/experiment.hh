/**
 * @file
 * The evaluation harness reproducing Section 5's methodology: build
 * profiles from a training trace, place with each algorithm (with and
 * without multiplicative profile noise), and measure instruction-cache
 * miss rates on a testing trace.
 */

#ifndef TOPO_EVAL_EXPERIMENT_HH
#define TOPO_EVAL_EXPERIMENT_HH

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "topo/cache/cache_config.hh"
#include "topo/cache/simulate.hh"
#include "topo/placement/placement.hh"
#include "topo/placement/popularity.hh"
#include "topo/profile/chunk_map.hh"
#include "topo/profile/pair_database.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/sampling/estimator.hh"
#include "topo/sampling/sample_plan.hh"
#include "topo/trace/fetch_stream.hh"
#include "topo/trace/trace_stats.hh"
#include "topo/workload/paper_suite.hh"

namespace topo
{

/** Knobs of the evaluation pipeline (paper defaults). */
struct EvalOptions
{
    CacheConfig cache = CacheConfig::paperDefault();
    /** Chunk size for TRG_place (Section 4.1). */
    std::uint32_t chunk_bytes = ChunkMap::kDefaultChunkBytes;
    /** Q byte budget as a multiple of the cache size (Section 3). */
    double q_budget_factor = 2.0;
    /** Popularity selection. */
    PopularityOptions popularity{};
    /** Build the Section 6 pair database too (costly; off by default). */
    bool build_pairs = false;
    /** Pair-window cap for the pair database. */
    std::uint32_t pair_window = 16;
    /** Prune pair-database entries below this weight. */
    double pair_prune = 2.0;
    /**
     * Representative-interval sampling (DESIGN.md §15). When active,
     * profiles and miss rates are weighted estimates over sampled
     * trace segments, the full test stream is expanded only for an
     * exact reference (exactTestResult), and testMissRate/
     * trainMissRate are replaced by sampledTestResult.
     */
    SamplingOptions sampling{};
};

/**
 * Everything placement consumes that is derived from a training trace:
 * trace statistics, the popular set, the chunking, the WCG, both TRGs
 * and (optionally) the pair database. Every algorithm gets the same
 * profile, built the same way, which is what makes Section 5's
 * comparison fair. Hand out contexts with context().
 */
struct TrainingProfile
{
    /** The profiled program; must outlive the profile. */
    const Program *program = nullptr;
    CacheConfig cache{};
    TraceStats stats{};
    PopularSet popular{};
    ChunkMap chunks;
    WeightedGraph wcg{};
    WeightedGraph trg_select{};
    WeightedGraph trg_place{};
    /** Section 6 pair database; empty unless EvalOptions::build_pairs. */
    PairDatabase pairs{};
    /** Average procedures resident in Q during TRG build (Table 1). */
    double avg_queue_procs = 0.0;

    /**
     * Assemble a placement context over this profile: heat is the
     * training bytes fetched per procedure. Optional overrides replace
     * the stored graphs (used by the perturbation experiments);
     * pointers must outlive the returned context's use.
     */
    PlacementContext context(const WeightedGraph *wcg_override = nullptr,
                             const WeightedGraph *select_override = nullptr,
                             const WeightedGraph *place_override = nullptr)
        const;
};

/**
 * Build the profile of @p train under @p options: exact walks, or
 * weighted estimates over a sample plan of @p train when
 * options.sampling is active.
 */
TrainingProfile buildProfile(const Program &program, const Trace &train,
                             const EvalOptions &options);

/**
 * A benchmark's program, its synthesized training and testing traces,
 * the training profile, and the testing side the simulators replay.
 */
class ProfileBundle
{
  public:
    /** Run the full profiling pipeline on a benchmark case. */
    ProfileBundle(const BenchmarkCase &bench, const EvalOptions &options);

    const std::string &name() const { return name_; }
    const Program &program() const { return program_; }
    const EvalOptions &options() const { return options_; }
    const Trace &trainTrace() const { return train_trace_; }
    const Trace &testTrace() const { return test_trace_; }
    const TrainingProfile &profile() const { return profile_; }
    const WeightedGraph &wcg() const { return profile_.wcg; }
    const WeightedGraph &trgSelect() const { return profile_.trg_select; }
    const WeightedGraph &trgPlace() const { return profile_.trg_place; }
    /**
     * The training trace's fetch stream, expanded on the first call
     * (thread-safe): only trainMissRate-style measurements read it.
     */
    const FetchStream &
    trainStream() const
    {
        return expandOnce(train_stream_, train_trace_);
    }
    /**
     * The testing trace's fetch stream. An exact bundle expands it in
     * its constructor; a sampled one on the first call (thread-safe).
     */
    const FetchStream &
    testStream() const
    {
        return expandOnce(test_stream_, test_trace_);
    }

    /** The profile's placement context; see TrainingProfile::context. */
    PlacementContext makeContext(const WeightedGraph *wcg = nullptr,
                                 const WeightedGraph *trg_select = nullptr,
                                 const WeightedGraph *trg_place = nullptr)
        const
    {
        return profile_.context(wcg, trg_select, trg_place);
    }

    /** Miss rate of a layout on the testing trace. */
    double testMissRate(const Layout &layout) const;

    /** Miss rate of a layout on the training trace. */
    double trainMissRate(const Layout &layout) const;

    /** Whether this bundle was built with sampling active. */
    bool sampled() const { return options_.sampling.active(); }

    /** The testing trace's sample plan (sampled bundles only). */
    const SamplePlan &testPlan() const;

    /**
     * Weighted miss estimate of a layout on the testing trace
     * (sampled bundles only; the sampled analogue of testMissRate).
     */
    SampledSimResult sampledTestResult(const Layout &layout,
                                       bool attribute = false) const;

    /**
     * Exact replay of a layout on the testing trace — the
     * --sample-verify reference path of a sampled bundle (exact
     * bundles use testMissRate).
     */
    SimResult exactTestResult(const Layout &layout,
                              bool attribute = false) const;

  private:
    /** A fetch stream expanded on first use. */
    struct LazyStream
    {
        std::once_flag once;
        std::optional<FetchStream> stream;
    };

    /** @p lazy's stream of @p trace, expanding it on the first call. */
    const FetchStream &expandOnce(LazyStream &lazy,
                                  const Trace &trace) const;

    std::string name_;
    EvalOptions options_;
    Program program_;
    Trace train_trace_;
    Trace test_trace_;
    TrainingProfile profile_;
    mutable LazyStream test_stream_;
    mutable LazyStream train_stream_;
    /** The testing trace's sample plan (null unless sampling). */
    std::unique_ptr<SamplePlan> test_plan_;
};

/** Results of one algorithm in a Figure 5-style comparison. */
struct AlgorithmResult
{
    std::string algorithm;
    /** Miss rate with unperturbed profile data. */
    double unperturbed = 0.0;
    /** Miss rates over the perturbed repetitions (unsorted). */
    std::vector<double> perturbed;
};

/** Options of the perturbation comparison. */
struct ComparisonOptions
{
    /** Number of perturbed repetitions (the paper uses 40). */
    std::size_t repetitions = 40;
    /** Perturbation scale s (the paper uses 0.1). */
    double scale = 0.1;
    /** Base seed; repetition k uses stream (base_seed, k). */
    std::uint64_t seed = 12345;
    /** Measure on the training trace instead of the testing trace. */
    bool measure_on_train = false;
};

/**
 * Run PH/HKC/GBSC (or any algorithm set) with perturbed profiles.
 *
 * Each repetition perturbs every graph an algorithm consumes with an
 * independent noise stream, re-places, and measures the test (or
 * train) miss rate.
 */
std::vector<AlgorithmResult>
runComparison(const ProfileBundle &bundle,
              const std::vector<const PlacementAlgorithm *> &algorithms,
              const ComparisonOptions &options);

/**
 * Cache-relative line offsets of every procedure under a layout
 * (address / line_bytes mod cache lines) — the representation the
 * conflict metrics and the Figure 6 randomisation consume.
 */
std::vector<std::uint32_t> layoutOffsets(const Program &program,
                                         const Layout &layout,
                                         const CacheConfig &cache);

} // namespace topo

#endif // TOPO_EVAL_EXPERIMENT_HH
