/**
 * @file
 * topo_corrupt: deterministic file-damage tool for resilience testing.
 *
 *   topo_corrupt --in=app.btrace --out=damaged.btrace --truncate=100
 *   topo_corrupt --in=app.btrace --out=d.btrace --bitflip=512
 *   topo_corrupt --in=app.btrace --out=d.btrace --random-flips=8 --seed=7
 *   topo_corrupt --in=app.btrace --out=d.btrace --drop-chunk=1
 *
 * Damage kinds (exactly one per invocation):
 *   --truncate=N        keep only the first N bytes
 *   --truncate-frac=F   keep the first F fraction of bytes (0..1)
 *   --bitflip=OFF       flip one bit at byte offset OFF (bit index via
 *                       --flip-bit=B, default 0)
 *   --random-flips=N    flip N random bits, seeded with --seed
 *   --drop-chunk=K      excise the K-th v2 trace chunk (binary traces
 *                       only; chunk 0 is the first after the header)
 *
 * Profile-store damage (--target=store --store=DIR, in place):
 *   --truncate-tail=N      cut N bytes off the journal's end (a torn
 *                          append)
 *   --drop-record=K        excise the K-th valid journal record (a
 *                          sequence gap)
 *   --bitflip-snapshot=OFF flip a bit of the newest snapshot file
 *                          (--snapshot-gen=G picks a generation,
 *                          --flip-bit=B a bit index)
 *
 * Every mode is a pure function of its flags, so failures found by the
 * soak harness replay exactly.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "topo/obs/obs.hh"
#include "topo/resilience/resilience.hh"
#include "topo/store/store_codec.hh"
#include "topo/trace/trace_binary.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"

namespace
{

using namespace topo;

std::string
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.good())
        fail("topo_corrupt: cannot open '" + path + "'");
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os.good())
        fail("topo_corrupt: cannot open '" + path + "'");
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    if (!os.good())
        fail("topo_corrupt: write to '" + path + "' failed");
}

void
flipBit(std::string &bytes, std::size_t off, int bit)
{
    require(off < bytes.size(),
            "topo_corrupt: bit-flip offset beyond the file size");
    require(bit >= 0 && bit < 8,
            "topo_corrupt: --flip-bit must be in [0, 7]");
    bytes[off] = static_cast<char>(
        static_cast<unsigned char>(bytes[off]) ^ (1u << bit));
}

/** In-place damage to a profile-store directory. */
int
runStore(const Options &opts)
{
    const std::string dir = opts.getString("store", "");
    require(!dir.empty(),
            "topo_corrupt: --target=store needs --store=DIR");
    int modes = 0;
    for (const char *flag :
         {"truncate-tail", "drop-record", "bitflip-snapshot"}) {
        if (!opts.getString(flag, "").empty())
            ++modes;
    }
    require(modes == 1,
            "topo_corrupt: pick exactly one of --truncate-tail, "
            "--drop-record, --bitflip-snapshot");

    if (!opts.getString("bitflip-snapshot", "").empty()) {
        // Damage a snapshot generation (default: the newest slot).
        std::string path;
        if (opts.getString("snapshot-gen", "").empty()) {
            // Newest = the slot whose header carries the higher
            // generation; fall back to whichever slot exists.
            std::string best;
            std::uint64_t best_gen = 0;
            for (int slot = 0; slot < 2; ++slot) {
                const std::string candidate =
                    dir + "/snapshot-" + std::to_string(slot) +
                    ".tps";
                std::ifstream probe(candidate, std::ios::binary);
                if (!probe.good())
                    continue;
                std::string bytes = readFileBytes(candidate);
                // generation lives at payload offset 16 => file 32.
                if (bytes.size() < 40)
                    continue;
                std::uint64_t gen = 0;
                for (int i = 0; i < 8; ++i) {
                    gen |= static_cast<std::uint64_t>(
                               static_cast<unsigned char>(
                                   bytes[32 + i]))
                           << (8 * i);
                }
                if (best.empty() || gen > best_gen) {
                    best = candidate;
                    best_gen = gen;
                }
            }
            if (best.empty())
                fail("topo_corrupt: no snapshot files in '" + dir + "'");
            path = best;
        } else {
            path = dir + "/snapshot-" +
                   std::to_string(opts.getInt("snapshot-gen", 0) % 2) +
                   ".tps";
        }
        std::string bytes = readFileBytes(path);
        const auto off = static_cast<std::size_t>(
            opts.getInt("bitflip-snapshot", 0));
        flipBit(bytes, off,
                static_cast<int>(opts.getInt("flip-bit", 0)));
        writeFileBytes(path, bytes);
        std::cerr << "flipped bit at offset " << off << " of " << path
                  << "\n";
        return 0;
    }

    const std::string journal = dir + "/journal.tpj";
    std::string bytes = readFileBytes(journal);
    if (!opts.getString("truncate-tail", "").empty()) {
        const auto cut = static_cast<std::size_t>(
            opts.getInt("truncate-tail", 0));
        require(cut <= bytes.size(),
                "topo_corrupt: --truncate-tail beyond the journal "
                "size");
        bytes.resize(bytes.size() - cut);
        writeFileBytes(journal, bytes);
        std::cerr << "cut " << cut << " byte(s) off " << journal
                  << "\n";
        return 0;
    }

    const auto drop =
        static_cast<std::size_t>(opts.getInt("drop-record", 0));
    const JournalScan scan = scanJournal(bytes, journal);
    if (drop >= scan.extents.size())
        fail("topo_corrupt: --drop-record index out of range (journal "
             "has " +
             std::to_string(scan.extents.size()) + " valid records)");
    bytes.erase(scan.extents[drop].begin,
                scan.extents[drop].end - scan.extents[drop].begin);
    writeFileBytes(journal, bytes);
    std::cerr << "dropped journal record " << drop << " (seq "
              << scan.extents[drop].seq << ")\n";
    return 0;
}

int
run(const Options &opts)
{
    if (opts.getString("target", "") == "store")
        return runStore(opts);
    require(opts.getString("target", "").empty(),
            "topo_corrupt: unknown --target (only 'store')");
    const std::string in_path = opts.getString("in", "");
    const std::string out_path = opts.getString("out", "");
    require(!in_path.empty() && !out_path.empty(),
            "topo_corrupt: --in and --out are required");
    std::string bytes = readFileBytes(in_path);
    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.counter("corrupt.bytes_in").add(bytes.size());

    int modes = 0;
    for (const char *flag : {"truncate", "truncate-frac", "bitflip",
                             "random-flips", "drop-chunk"}) {
        if (!opts.getString(flag, "").empty())
            ++modes;
    }
    require(modes == 1,
            "topo_corrupt: pick exactly one of --truncate, "
            "--truncate-frac, --bitflip, --random-flips, --drop-chunk");

    if (!opts.getString("truncate", "").empty()) {
        const auto keep =
            static_cast<std::size_t>(opts.getInt("truncate", 0));
        require(keep <= bytes.size(),
                "topo_corrupt: --truncate beyond the file size");
        bytes.resize(keep);
    } else if (!opts.getString("truncate-frac", "").empty()) {
        const double frac = opts.getDouble("truncate-frac", 1.0);
        require(frac >= 0.0 && frac <= 1.0,
                "topo_corrupt: --truncate-frac must be in [0, 1]");
        bytes.resize(static_cast<std::size_t>(
            static_cast<double>(bytes.size()) * frac));
    } else if (!opts.getString("bitflip", "").empty()) {
        const auto off =
            static_cast<std::size_t>(opts.getInt("bitflip", 0));
        require(off < bytes.size(),
                "topo_corrupt: --bitflip offset beyond the file size");
        const int bit = static_cast<int>(opts.getInt("flip-bit", 0));
        require(bit >= 0 && bit < 8,
                "topo_corrupt: --flip-bit must be in [0, 7]");
        bytes[off] = static_cast<char>(
            static_cast<unsigned char>(bytes[off]) ^ (1u << bit));
    } else if (!opts.getString("random-flips", "").empty()) {
        const auto flips =
            static_cast<std::uint64_t>(opts.getInt("random-flips", 1));
        require(!bytes.empty(), "topo_corrupt: input file is empty");
        Rng rng(static_cast<std::uint64_t>(opts.getInt("seed", 1)));
        for (std::uint64_t i = 0; i < flips; ++i) {
            const std::size_t off = static_cast<std::size_t>(
                rng.nextBelow(bytes.size()));
            const int bit = static_cast<int>(rng.nextBelow(8));
            bytes[off] = static_cast<char>(
                static_cast<unsigned char>(bytes[off]) ^ (1u << bit));
        }
    } else {
        const auto drop = static_cast<std::size_t>(
            opts.getInt("drop-chunk", 0));
        const std::vector<ChunkExtent> chunks =
            scanBinaryTraceChunks(bytes);
        if (drop >= chunks.size())
            fail("topo_corrupt: --drop-chunk index out of range (file "
                 "has " +
                 std::to_string(chunks.size()) + " chunks)");
        bytes.erase(chunks[drop].begin,
                    chunks[drop].end - chunks[drop].begin);
        std::cerr << "dropped chunk " << drop << " ("
                  << chunks[drop].records << " records)\n";
    }

    writeFileBytes(out_path, bytes);
    metrics.counter("corrupt.bytes_out").add(bytes.size());
    logInfo("corrupt", "damage applied",
            {{"in", in_path},
             {"out", out_path},
             {"bytes_out", bytes.size()}});
    std::cerr << "wrote " << bytes.size() << " bytes to " << out_path
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const topo::ToolSpec spec{
        "topo_corrupt",
        "topo_corrupt: damage a file deterministically for resilience "
        "tests.\n"
        "  --in=FILE --out=FILE\n"
        "  --truncate=N | --truncate-frac=F\n"
        "  --bitflip=OFFSET [--flip-bit=B]\n"
        "  --random-flips=N [--seed=S]\n"
        "  --drop-chunk=K   (binary topo traces only)\n"
        "  --target=store --store=DIR  damage a profile store in "
        "place:\n"
        "    --truncate-tail=N | --drop-record=K |\n"
        "    --bitflip-snapshot=OFF [--snapshot-gen=G] [--flip-bit=B]\n"
        "  --fault-spec=KIND@P[:seed] "
        "(read_short|write_short|bitflip|throw_io)\n"
        "  --log-level=L --log-file=FILE --metrics-out=FILE\n"
        "  --trace-out=FILE (Chrome trace events for Perfetto)\n",
        {"in", "out", "truncate", "truncate-frac", "bitflip",
         "flip-bit", "random-flips", "seed", "drop-chunk", "target",
         "store", "truncate-tail", "drop-record", "bitflip-snapshot",
         "snapshot-gen"},
        run,
    };
    return topo::toolMain(argc, argv, spec);
}
