#include "topo/workload/microsuite.hh"

#include "topo/util/error.hh"
#include "topo/util/rng.hh"

namespace topo
{

namespace
{

MicroCase
thrashPair()
{
    MicroCase mc;
    mc.name = "thrash_pair";
    mc.lesson = "two alternating procedures fit the cache together; "
                "any overlap is pure conflict loss";
    mc.program = Program(mc.name);
    const ProcId f = mc.program.addProcedure("f", 3072);
    // Dead weight between the pair in source order, sized so the
    // default layout maps g exactly on top of f (8KB cache).
    mc.program.addProcedure("dead", 8 * 1024 - 3072);
    const ProcId g = mc.program.addProcedure("g", 3072);
    mc.cache = CacheConfig{8 * 1024, 32, 1};
    mc.trace = Trace(mc.program.procCount());
    for (int i = 0; i < 3000; ++i) {
        mc.trace.appendWhole(f, 3072);
        mc.trace.appendWhole(g, 3072);
    }
    return mc;
}

MicroCase
siblingFanout()
{
    MicroCase mc;
    mc.name = "sibling_fanout";
    mc.lesson = "siblings never call each other, so the WCG carries no "
                "edge between them and cannot tell which pairs "
                "interleave; the TRG sees that neighbouring cases "
                "alternate while distant ones may share lines";
    mc.program = Program(mc.name);
    const ProcId dispatch = mc.program.addProcedure("dispatch", 1024);
    std::vector<ProcId> siblings;
    for (int i = 0; i < 6; ++i) {
        siblings.push_back(mc.program.addProcedure(
            "case_" + std::to_string(i), 1024));
    }
    // 7 KB of code into a 4 KB cache: someone must overlap someone.
    mc.cache = CacheConfig{4 * 1024, 32, 1};
    mc.trace = Trace(mc.program.procCount());
    // The dispatch index performs a local random walk: temporally
    // close references hit *neighbouring* cases, so (i, i+-1) pairs
    // interleave constantly while distant pairs are cheap to overlap.
    Rng rng(9);
    std::size_t index = 0;
    for (int i = 0; i < 8000; ++i) {
        mc.trace.appendWhole(dispatch, 1024);
        mc.trace.appendWhole(siblings[index], 1024);
        if (rng.nextBool(0.1)) {
            index = rng.nextBelow(siblings.size());
        } else if (rng.nextBool(0.5)) {
            index = (index + 1) % siblings.size();
        } else {
            index = (index + siblings.size() - 1) % siblings.size();
        }
    }
    return mc;
}

MicroCase
phaseFlip()
{
    MicroCase mc;
    mc.name = "phase_flip";
    mc.lesson = "disjoint phase working sets may overlap each other in "
                "the cache at zero cost, but not within a phase (the "
                "Figure 1 trace-#2 structure at scale)";
    mc.program = Program(mc.name);
    std::vector<ProcId> phase_a, phase_b;
    // Interleaved source order: the default layout wraps a2 onto a0
    // and b2 onto b0 — overlap *within* a phase, the worst kind.
    for (int i = 0; i < 3; ++i) {
        std::string a(1, 'a'), b(1, 'b');
        a += std::to_string(i);
        b += std::to_string(i);
        phase_a.push_back(mc.program.addProcedure(a, 2048));
        phase_b.push_back(mc.program.addProcedure(b, 2048));
    }
    mc.cache = CacheConfig{8 * 1024, 32, 1};
    mc.trace = Trace(mc.program.procCount());
    for (int epoch = 0; epoch < 6; ++epoch) {
        const auto &procs = (epoch % 2 == 0) ? phase_a : phase_b;
        for (int it = 0; it < 400; ++it) {
            for (ProcId p : procs)
                mc.trace.appendWhole(p, 2048);
        }
    }
    return mc;
}

MicroCase
giantProc()
{
    MicroCase mc;
    mc.name = "giant_proc";
    mc.lesson = "a procedure larger than the cache: only chunk-level "
                "information can find the alignment that keeps its hot "
                "chunks clear of the helper";
    mc.program = Program(mc.name);
    const ProcId giant = mc.program.addProcedure("giant", 12 * 1024);
    const ProcId helper = mc.program.addProcedure("helper", 512);
    mc.cache = CacheConfig{8 * 1024, 32, 1};
    mc.trace = Trace(mc.program.procCount());
    // Only two hot windows of the giant execute, interleaved with the
    // helper; the rest of the giant runs once (cold). A 12KB giant
    // covers *every* cache line, so the helper must overlap it
    // somewhere; the second hot window sits exactly where both the
    // default layout and a naive adjacent placement drop the helper
    // (cache-relative lines 128..143), so only chunk-level knowledge
    // dodges it.
    mc.trace.appendWhole(giant, 12 * 1024);
    for (int i = 0; i < 4000; ++i) {
        mc.trace.append(giant, 0, 512);        // hot head (lines 0-15)
        mc.trace.append(helper, 0, 512);
        mc.trace.append(giant, 4 * 1024, 512); // hot window (128-143)
    }
    return mc;
}

MicroCase
coldSandwich()
{
    MicroCase mc;
    mc.name = "cold_sandwich";
    mc.lesson = "dead code between two hot procedures pushes them onto "
                "the same lines in the default layout; placement just "
                "has to move one of them";
    mc.program = Program(mc.name);
    const ProcId parse = mc.program.addProcedure("parse", 1800);
    mc.program.addProcedure("legacy", 2240);
    const ProcId eval = mc.program.addProcedure("eval", 1600);
    mc.cache = CacheConfig{4 * 1024, 32, 1};
    mc.trace = Trace(mc.program.procCount());
    for (int i = 0; i < 4000; ++i) {
        mc.trace.appendWhole(parse, 1800);
        mc.trace.appendWhole(eval, 1600);
    }
    return mc;
}

} // namespace

std::vector<MicroCase>
microsuite()
{
    std::vector<MicroCase> cases;
    cases.push_back(thrashPair());
    cases.push_back(siblingFanout());
    cases.push_back(phaseFlip());
    cases.push_back(giantProc());
    cases.push_back(coldSandwich());
    return cases;
}

MicroCase
microCase(const std::string &name)
{
    for (MicroCase &mc : microsuite()) {
        if (mc.name == name)
            return std::move(mc);
    }
    fail("microCase: unknown case '" + name + "'");
}

} // namespace topo
