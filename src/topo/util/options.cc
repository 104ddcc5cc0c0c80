#include "topo/util/options.hh"

#include <cctype>
#include <cstdlib>

#include "topo/util/error.hh"
#include "topo/util/string_utils.hh"

namespace topo
{

Options
Options::parse(int argc, const char *const *argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            opts.help_ = true;
            continue;
        }
        if (arg.rfind("--", 0) != 0) {
            fail("Options::parse: unexpected positional argument '" + arg +
                 "'");
        }
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos) {
            // Bare flag means boolean true.
            opts.values_.insert_or_assign(arg.substr(2), std::string(1, '1'));
        } else {
            opts.values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
    }
    return opts;
}

bool
Options::lookup(const std::string &name, std::string &out) const
{
    auto it = values_.find(name);
    if (it != values_.end()) {
        out = it->second;
        return true;
    }
    std::string env_name = "TOPO_";
    for (char ch : name) {
        env_name += (ch == '-') ? '_'
                                : static_cast<char>(std::toupper(
                                      static_cast<unsigned char>(ch)));
    }
    if (const char *env = std::getenv(env_name.c_str())) {
        out = env;
        return true;
    }
    return false;
}

bool
Options::has(const std::string &name) const
{
    std::string ignored;
    return lookup(name, ignored);
}

std::string
Options::getString(const std::string &name, const std::string &fallback) const
{
    std::string value;
    return lookup(name, value) ? value : fallback;
}

std::int64_t
Options::getInt(const std::string &name, std::int64_t fallback) const
{
    std::string value;
    if (!lookup(name, value))
        return fallback;
    return parseInt(value, "option --" + name);
}

double
Options::getDouble(const std::string &name, double fallback) const
{
    std::string value;
    if (!lookup(name, value))
        return fallback;
    return parseDouble(value, "option --" + name);
}

bool
Options::getBool(const std::string &name, bool fallback) const
{
    std::string value;
    if (!lookup(name, value))
        return fallback;
    if (value == "1" || value == "true" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "no")
        return false;
    fail("option --" + name + ": expected boolean, got '" + value + "'");
}

void
Options::set(const std::string &name, const std::string &value)
{
    values_[name] = value;
}

void
Options::rejectUnknown(const std::vector<std::string> &known) const
{
    for (const auto &[name, value] : values_) {
        bool found = false;
        for (const std::string &k : known) {
            if (name == k) {
                found = true;
                break;
            }
        }
        if (found)
            continue;
        std::string hint;
        std::size_t best = 4; // suggest only within edit distance 3
        for (const std::string &k : known) {
            const std::size_t d = editDistance(name, k);
            if (d < best) {
                best = d;
                hint = k;
            }
        }
        std::string msg = "unknown option '--" + name + "'";
        if (!hint.empty())
            msg += " (did you mean '--" + hint + "'?)";
        fail(msg);
    }
}

} // namespace topo
