#include "topo/trace/fetch_stream.hh"

#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/resilience/fault.hh"
#include "topo/trace/reuse_table.hh"
#include "topo/util/error.hh"

namespace topo
{

FetchStream::FetchStream(const Program &program, const Trace &trace,
                         std::uint32_t line_bytes)
    : line_bytes_(line_bytes)
{
    require(line_bytes > 0, "FetchStream: zero line size");

    // Source-order concatenation of every procedure's lines defines
    // the program line id space: proc p's line l is line_base_[p] + l.
    line_base_.assign(program.procCount() + 1, 0);
    std::uint64_t total_lines = 0;
    for (std::size_t p = 0; p < program.procCount(); ++p) {
        line_base_[p] = static_cast<std::uint32_t>(total_lines);
        const std::uint32_t size =
            program.proc(static_cast<ProcId>(p)).size_bytes;
        total_lines += (size + line_bytes - 1) / line_bytes;
        require(total_lines <= ~std::uint32_t{0},
                "FetchStream: program exceeds 2^32 lines");
    }
    line_base_[program.procCount()] =
        static_cast<std::uint32_t>(total_lines);
    proc_of_line_.resize(static_cast<std::size_t>(total_lines));
    for (std::size_t p = 0; p < program.procCount(); ++p) {
        for (std::uint32_t id = line_base_[p]; id < line_base_[p + 1];
             ++id)
            proc_of_line_[id] = static_cast<ProcId>(p);
    }

    // An event's lines, as one repeat of a run of program line ids.
    auto run_of = [&](const TraceEvent &ev) {
        FetchRun run = eventLines(ev, line_bytes);
        run.first_line += line_base_[ev.proc];
        return run;
    };

    // Pass 1 checks every event and counts the runs, so pass 2 fills
    // an exactly sized vector: growing it, or shrinking a reserve by
    // event count, would briefly hold two copies of the runs. The
    // fault hook is armed once outside the loop so the common case
    // stays a pure scan; the periodic check keeps the injected-error
    // path (mid-expansion failure) exercisable.
    const bool faulty = faultArmed(FaultKind::kThrowIo);
    const std::vector<Procedure> &procs = program.procs();
    std::size_t processed = 0;
    std::size_t run_count = 0;
    FetchRun prev{0, 0, 0}; // line_count 0: equal to no event's run
    for (const TraceEvent &ev : trace.events()) {
        if (faulty && (++processed & 0xFF) == 0)
            faultMaybeThrowIo("fetch_stream");
        // Spelled out rather than requireData() and Program::proc():
        // their std::string arguments cost an allocation per call.
        if (ev.proc >= procs.size())
            failCorrupt("FetchStream: invalid procedure id in trace", "");
        if (std::uint64_t{ev.offset} + ev.length > procs[ev.proc].size_bytes)
            failCorrupt("FetchStream: run exceeds procedure bounds", "");
        const FetchRun run = run_of(ev);
        run_count += run == prev ? 0 : 1;
        prev = run;
    }
    runs_.reserve(run_count);
    prev = FetchRun{0, 0, 0};
    for (const TraceEvent &ev : trace.events()) {
        const FetchRun run = run_of(ev);
        if (run == prev)
            ++runs_.back().repeats;
        else
            runs_.push_back(run);
        size_ += run.line_count;
        prev = run;
    }
}

const std::vector<std::uint8_t> &
FetchStream::reuseTable(std::uint64_t shadow_lines) const
{
    const std::lock_guard lock(reuse_memo_.mutex);
    for (const auto &[lines, table] : reuse_memo_.tables) {
        if (lines == shadow_lines)
            return *table;
    }
    PhaseTimer timer("reuse_table");
    auto table = std::make_shared<const std::vector<std::uint8_t>>(
        buildReuseTable(*this, shadow_lines));
    timer.stop();
    MetricsRegistry::current().counter("trace.reuse_table_builds").add();
    reuse_memo_.tables.emplace_back(shadow_lines, std::move(table));
    return *reuse_memo_.tables.back().second;
}

FetchStream::ReuseMemo::ReuseMemo(const ReuseMemo &other)
{
    const std::lock_guard lock(other.mutex);
    tables = other.tables;
}

FetchStream::ReuseMemo &
FetchStream::ReuseMemo::operator=(const ReuseMemo &other)
{
    if (this != &other) {
        const std::scoped_lock lock(mutex, other.mutex);
        tables = other.tables;
    }
    return *this;
}

} // namespace topo
