#include "topo/placement/placement_table.hh"

#include <iterator>

#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

const DefaultPlacement kDefault;
const PettisHansen kPettisHansen;
const CacheColoring kCacheColoring;
const Gbsc kGbsc;

} // namespace

const PlacementEntry kPlacementTable[4] = {
    {"default", "default", "source order, no gaps (the compiler's layout)",
     kDefault},
    {"ph", "PH", "Pettis-Hansen chain merging over the WCG",
     kPettisHansen},
    {"hkc", "HKC", "Hashemi-Kaeli-Calder cache colouring over the WCG",
     kCacheColoring},
    {"gbsc", "GBSC", "greedy placement over the TRGs (this paper)", kGbsc},
};

const PlacementEntry &
placementEntry(const std::string &name)
{
    for (const PlacementEntry &entry : kPlacementTable) {
        if (entry.name == name)
            return entry;
    }
    const std::size_t count = std::size(kPlacementTable);
    std::string choices;
    for (std::size_t i = 0; i < count; ++i) {
        choices += i == 0 ? "" : i + 1 == count ? ", or " : ", ";
        choices += kPlacementTable[i].name;
    }
    fail("unknown placement algorithm '" + name + "' (use " + choices +
         ")");
}

} // namespace topo
