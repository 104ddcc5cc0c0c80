/**
 * @file
 * The benchmark's four workloads and the two ways it runs a pass.
 *
 * A pass takes one workload's program and traces, already in memory,
 * to every miss rate the workload produces. The plain pass calls the
 * entry points the tools call (ProfileBundle, PlacementAlgorithm::place,
 * simulateLayout, estimateLayout, runComparison) and is what the
 * untraced run times. The decomposed pass calls, on the same inputs,
 * the public functions ProfileBundle and runComparison are built from,
 * with a span around each, so the traced run can split their time by
 * layer. Both must produce the same outputs bit for bit.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "reference.hh"
#include "tracer.hh"
#include "topo/eval/experiment.hh"
#include "topo/workload/paper_suite.hh"

namespace perfbench
{

/** What a workload does after profiling. */
enum class Mode
{
    /** Place with each algorithm, replay the test trace exactly. */
    kExact,
    /** Figure 5: runComparison over perturbed profiles. */
    kPerturb,
    /** Exact replays with a TaxonomySink attached (--taxonomy). */
    kExplain,
    /** Sampled profile and sampled miss estimates (--sample=simpoint). */
    kSampled,
};

/** One workload of the benchmark. */
struct WorkloadSpec
{
    std::string name;
    /** Paper-suite benchmark (paperBenchmark name). */
    std::string benchmark;
    Mode mode = Mode::kExact;
    /** Trace scale of a measured run, and of a --smoke run. */
    double scale = 1.0;
    double smoke_scale = 0.02;
    /** Pool lanes (setExecJobs). */
    int lanes = 1;
    /** Algorithms, by their command-line names. */
    std::vector<std::string> algorithms;
    /** Perturbed repetitions (kPerturb), measured and under --smoke. */
    std::size_t repetitions = 0;
    std::size_t smoke_repetitions = 0;
};

/** Every workload; BENCHMARK.json times all of them but perturb-gcc. */
const std::vector<WorkloadSpec> &workloadSpecs();

/** The workload named @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** The seed that keeps the suite's own train, test and noise seeds. */
constexpr std::uint64_t kSuiteSeed = 0;

/** Input sets a measured run takes its passes on, in turn. */
constexpr std::size_t kInputSets = 4;

/**
 * Seed of input set @p set of a run with seed @p seed: @p seed itself
 * for set 0, so a run with kSuiteSeed still holds the suite's inputs;
 * for later sets a value derived from both that is never kSuiteSeed.
 */
std::uint64_t inputSetSeed(std::uint64_t seed, std::size_t set);

/** A workload's inputs: the program and both traces, plus knobs. */
struct Inputs
{
    topo::BenchmarkCase bench;
    topo::Trace train;
    topo::Trace test;
    topo::EvalOptions eval;
    topo::ComparisonOptions comparison;
};

/**
 * Synthesize a workload's inputs. Any seed other than kSuiteSeed
 * replaces the train and test input seeds and the perturbation seed
 * with values derived from it; the program itself never changes.
 */
Inputs makeInputs(const WorkloadSpec &spec, double scale,
                  std::size_t repetitions, std::uint64_t seed);

/** A sampled estimate of a test-trace replay. */
struct SampledCounts
{
    std::uint64_t accesses = 0;
    double est_misses = 0.0;

    double
    estMissRate() const
    {
        return accesses ? est_misses / static_cast<double>(accesses) : 0.0;
    }
};

/** One placed layout and what its replay said. */
struct LayoutOutcome
{
    /** Command-line algorithm name. */
    std::string algorithm;
    /** Perturbed repetition, or -1 for the unperturbed profile. */
    int repetition = -1;
    topo::Layout layout;
    /** Exact replay of the test trace (kExact, kExplain, kPerturb). */
    std::optional<ReplayCounts> exact;
    /** Sampled estimate of the test-trace replay (kSampled). */
    std::optional<SampledCounts> estimate;
    /** 3C split of the exact replay's misses (kExplain). */
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;
};

/** Everything a pass produced, plus what it cost. */
struct PassOutput
{
    std::vector<LayoutOutcome> layouts;
    /** runComparison's result, or its decomposition's (kPerturb). */
    std::vector<topo::AlgorithmResult> comparison;
    std::size_t wcg_edges = 0;
    std::size_t select_edges = 0;
    std::size_t place_edges = 0;
    /** Placements replayed: one operation each. */
    std::size_t operations = 0;

    /** Plain pass timings. */
    double wall_ms = 0.0;
    double bundle_ms = 0.0;
    double layout_ms = 0.0;

    /** Decomposed pass facts for the per-layer metrics. */
    std::uint64_t train_events = 0;
    std::uint64_t fetches = 0;
    std::uint64_t fetch_runs = 0;
    double stream_mb = 0.0;
    std::uint64_t replayed_fetches = 0;
    std::uint64_t observed_fetches = 0;
    std::size_t clusters = 0;
    double replayed_share = 0.0;
};

/** The plain pass (what the untraced run times). */
PassOutput runPlainPass(const WorkloadSpec &spec, const Inputs &inputs);

/** The decomposed pass, one span per public call, under root "pass". */
PassOutput runDecomposedPass(const WorkloadSpec &spec, const Inputs &inputs,
                             Tracer *tracer);

/**
 * Compare two passes' outputs. Every layout of @p ref must be in
 * @p got with the same address digest and replay results; edge counts
 * and comparison miss rates must match bit for bit. Returns an empty
 * string when they agree, else what differs.
 */
std::string comparePasses(const PassOutput &ref, const PassOutput &got);

/** The algorithm behind a command-line name (default, ph, hkc, gbsc). */
const topo::PlacementAlgorithm &algorithmByName(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
