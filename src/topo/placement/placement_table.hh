/**
 * @file
 * The one table from a command-line algorithm name to a placement
 * algorithm. Every tool and the profile store resolve --algorithm and
 * --algorithms through it, so they accept the same names, list them in
 * the same order, and reject an unknown name with the same message.
 */

#ifndef TOPO_PLACEMENT_PLACEMENT_TABLE_HH
#define TOPO_PLACEMENT_PLACEMENT_TABLE_HH

#include <string>

#include "topo/placement/placement.hh"

namespace topo
{

/** One selectable placement algorithm. */
struct PlacementEntry
{
    /** Name on the command line (--algorithm=NAME). */
    const char *name;
    /** Name in tables and reports; equals algorithm.name(). */
    const char *display;
    /** One-line description. */
    const char *description;
    const PlacementAlgorithm &algorithm;
};

/** The paper's four algorithms, in the order the tools list them. */
extern const PlacementEntry kPlacementTable[4];

/**
 * The entry named @p name. Throws a usage TopoError listing every
 * name in the table when there is none.
 */
const PlacementEntry &placementEntry(const std::string &name);

} // namespace topo

#endif // TOPO_PLACEMENT_PLACEMENT_TABLE_HH
