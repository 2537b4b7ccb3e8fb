#include "core/cli.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/error.hh"

namespace laer
{

CliArgs::CliArgs(int argc, const char *const *argv,
                 const std::vector<std::string> &allowed)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        LAER_CHECK(arg.rfind("--", 0) == 0,
                   "unexpected argument '" << arg
                                           << "' (flags start with --)");
        arg.erase(0, 2);
        std::string value;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.erase(eq);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        }
        LAER_CHECK(std::find(allowed.begin(), allowed.end(), arg) !=
                       allowed.end(),
                   "unknown flag --" << arg);
        flags_.emplace_back(arg, value);
    }
}

bool
CliArgs::has(const std::string &name) const
{
    for (const auto &[flag, value] : flags_)
        if (flag == name)
            return true;
    return false;
}

std::string
CliArgs::get(const std::string &name, const std::string &fallback) const
{
    for (const auto &[flag, value] : flags_)
        if (flag == name)
            return value;
    return fallback;
}

std::uint64_t
CliArgs::getUint(const std::string &name, std::uint64_t fallback) const
{
    if (!has(name))
        return fallback;
    const std::string value = get(name);
    LAER_CHECK(!value.empty(), "--" << name << " needs a value");
    // Digits only: stoull would silently wrap "-1" to 2^64 - 1.
    LAER_CHECK(value.find_first_not_of("0123456789") ==
                   std::string::npos,
               "--" << name << " value '" << value
                    << "' is not a non-negative whole number");
    try {
        return std::stoull(value);
    } catch (const std::out_of_range &) {
        LAER_CHECK(false, "--" << name << " value '" << value
                                << "' does not fit 64 bits");
    }
    return fallback; // unreachable
}

double
CliArgs::getDouble(const std::string &name, double fallback) const
{
    if (!has(name))
        return fallback;
    const std::string value = get(name);
    LAER_CHECK(!value.empty(), "--" << name << " needs a value");
    try {
        std::size_t consumed = 0;
        const double parsed = std::stod(value, &consumed);
        LAER_CHECK(consumed == value.size(),
                   "--" << name << " value '" << value
                        << "' is not a number");
        return parsed;
    } catch (const std::invalid_argument &) {
        LAER_CHECK(false, "--" << name << " value '" << value
                               << "' is not a number");
    } catch (const std::out_of_range &) {
        LAER_CHECK(false, "--" << name << " value '" << value
                               << "' is out of range");
    }
    return fallback; // unreachable
}

std::vector<std::string>
CliArgs::getList(const std::string &name) const
{
    std::vector<std::string> out;
    if (!has(name))
        return out;
    std::stringstream ss(get(name));
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::vector<std::string>
CliArgs::getChoices(const std::string &name,
                    const std::vector<std::string> &allowed) const
{
    const std::vector<std::string> items = getList(name);
    for (const std::string &item : items) {
        if (std::find(allowed.begin(), allowed.end(), item) !=
            allowed.end())
            continue;
        std::string names;
        for (const std::string &choice : allowed)
            names += (names.empty() ? "" : ", ") + choice;
        LAER_CHECK(false, "unknown --" << name << " value '" << item
                                       << "' (expected one of " << names
                                       << ")");
    }
    return items;
}

} // namespace laer
