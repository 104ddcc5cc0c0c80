#include "topo/resilience/fault.hh"

#include <cstdlib>
#include <memory>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/util/error.hh"
#include "topo/util/string_utils.hh"

namespace topo
{

namespace
{

/** Default seeds so arms differ even when the spec gives no seed. */
constexpr std::uint64_t kDefaultSeed[kFaultKindCount] = {
    0x5EED0001, 0x5EED0002, 0x5EED0003, 0x5EED0004};

std::unique_ptr<FaultPlan> g_plan;

/** The single armed crash point (none when site is empty). */
struct CrashPoint
{
    std::string site;
    std::uint64_t countdown = 0;
    CrashMode mode = CrashMode::kExit;
};

CrashPoint g_crash_point;

FaultKind
parseKind(const std::string &name)
{
    for (std::size_t i = 0; i < kFaultKindCount; ++i) {
        const auto kind = static_cast<FaultKind>(i);
        if (name == faultKindName(kind))
            return kind;
    }
    fail("fault-spec: unknown fault kind '" + name +
         "' (use read_short, bitflip, throw_io, or write_short)");
}

void
countInjection(FaultKind kind)
{
    MetricsRegistry::global()
        .counter(std::string("fault.injected.") + faultKindName(kind))
        .add();
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kReadShort:
        return "read_short";
      case FaultKind::kBitflip:
        return "bitflip";
      case FaultKind::kThrowIo:
        return "throw_io";
      case FaultKind::kWriteShort:
        return "write_short";
    }
    return "?";
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &raw : split(spec, ',')) {
        const std::string arm_text = trim(raw);
        if (arm_text.empty())
            continue;
        const std::size_t at = arm_text.find('@');
        if (at == std::string::npos)
            fail("fault-spec: arm '" + arm_text + "' is not KIND@PROB[:seed]");
        const FaultKind kind = parseKind(arm_text.substr(0, at));
        std::string prob_text = arm_text.substr(at + 1);
        std::uint64_t seed =
            kDefaultSeed[static_cast<std::size_t>(kind)];
        const std::size_t colon = prob_text.rfind(':');
        if (colon != std::string::npos) {
            seed = static_cast<std::uint64_t>(
                parseInt(prob_text.substr(colon + 1),
                         "fault-spec seed"));
            prob_text = prob_text.substr(0, colon);
        }
        const double p =
            parseDouble(prob_text, "fault-spec probability");
        if (!(p >= 0.0 && p <= 1.0))
            fail("fault-spec: probability " + prob_text + " outside [0, 1]");
        plan.arm(kind, p, seed);
    }
    return plan;
}

void
FaultPlan::arm(FaultKind kind, double probability, std::uint64_t seed)
{
    Arm &arm = arms_[static_cast<std::size_t>(kind)];
    arm.armed = true;
    arm.probability = probability;
    arm.rng = Rng(seed);
}

bool
FaultPlan::armed(FaultKind kind) const
{
    return arms_[static_cast<std::size_t>(kind)].armed;
}

bool
FaultPlan::any() const
{
    for (const Arm &arm : arms_)
        if (arm.armed)
            return true;
    return false;
}

bool
FaultPlan::fire(FaultKind kind)
{
    Arm &arm = arms_[static_cast<std::size_t>(kind)];
    if (!arm.armed)
        return false;
    return arm.rng.nextBool(arm.probability);
}

std::uint64_t
FaultPlan::draw(FaultKind kind)
{
    return arms_[static_cast<std::size_t>(kind)].rng.next();
}

std::string
FaultPlan::describe() const
{
    std::string text;
    for (std::size_t i = 0; i < kFaultKindCount; ++i) {
        if (!arms_[i].armed)
            continue;
        if (!text.empty())
            text += ',';
        text += faultKindName(static_cast<FaultKind>(i));
        text += '@';
        text += std::to_string(arms_[i].probability);
    }
    return text.empty() ? "none" : text;
}

void
installFaultPlan(const FaultPlan &plan)
{
    g_plan = std::make_unique<FaultPlan>(plan);
}

void
clearFaultPlan()
{
    g_plan.reset();
}

FaultPlan *
activeFaultPlan()
{
    return g_plan.get();
}

void
faultMaybeThrowIo(const char *site)
{
    FaultPlan *plan = activeFaultPlan();
    if (plan == nullptr || !plan->fire(FaultKind::kThrowIo))
        return;
    countInjection(FaultKind::kThrowIo);
    logWarn("fault", "injected I/O failure", {{"site", site}});
    failCorrupt("injected I/O failure", site);
}

std::size_t
faultMaybeShortenRead(const char *site, std::size_t n)
{
    FaultPlan *plan = activeFaultPlan();
    if (plan == nullptr || n == 0 ||
        !plan->fire(FaultKind::kReadShort)) {
        return n;
    }
    countInjection(FaultKind::kReadShort);
    const std::size_t kept =
        static_cast<std::size_t>(plan->draw(FaultKind::kReadShort) % n);
    logWarn("fault", "injected short read",
            {{"site", site}, {"bytes", std::uint64_t(n)},
             {"kept", std::uint64_t(kept)}});
    return kept;
}

void
faultMaybeCorrupt(const char *site, char *data, std::size_t n)
{
    FaultPlan *plan = activeFaultPlan();
    if (plan == nullptr || n == 0 ||
        !plan->fire(FaultKind::kBitflip)) {
        return;
    }
    countInjection(FaultKind::kBitflip);
    const std::uint64_t pick = plan->draw(FaultKind::kBitflip);
    const std::size_t byte = static_cast<std::size_t>(pick % n);
    const unsigned bit = static_cast<unsigned>((pick >> 32) & 7);
    data[byte] = static_cast<char>(
        static_cast<unsigned char>(data[byte]) ^ (1u << bit));
    logWarn("fault", "injected bit flip",
            {{"site", site}, {"byte", std::uint64_t(byte)},
             {"bit", bit}});
}

std::size_t
faultMaybeShortenWrite(const char *site, std::size_t n)
{
    FaultPlan *plan = activeFaultPlan();
    if (plan == nullptr || n == 0 ||
        !plan->fire(FaultKind::kWriteShort)) {
        return n;
    }
    countInjection(FaultKind::kWriteShort);
    const std::size_t kept = static_cast<std::size_t>(
        plan->draw(FaultKind::kWriteShort) % n);
    logWarn("fault", "injected short write",
            {{"site", site}, {"bytes", std::uint64_t(n)},
             {"kept", std::uint64_t(kept)}});
    return kept;
}

void
installCrashPoint(const std::string &site, std::uint64_t countdown,
                  CrashMode mode)
{
    require(!site.empty(), "crash point: empty site");
    require(countdown > 0, "crash point: countdown must be >= 1");
    g_crash_point = CrashPoint{site, countdown, mode};
}

void
clearCrashPoint()
{
    g_crash_point = CrashPoint{};
}

void
faultMaybeCrash(const char *site)
{
    if (g_crash_point.site.empty() || g_crash_point.site != site)
        return;
    if (--g_crash_point.countdown > 0)
        return;
    MetricsRegistry::global().counter("fault.injected.crash").add();
    logWarn("fault", "crash point fired", {{"site", site}});
    if (g_crash_point.mode == CrashMode::kExit) {
        // No atexit handlers, no stream flushes: everything not yet
        // written (or fsynced) by the store is lost, as in a real
        // crash.
        std::_Exit(kCrashPointExitCode);
    }
    const std::string fired = g_crash_point.site;
    g_crash_point = CrashPoint{};
    throw CrashPointHit{fired};
}

} // namespace topo
