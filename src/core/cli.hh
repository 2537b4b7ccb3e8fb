/**
 * @file
 * Minimal command-line flag parser for the bench and example binaries.
 *
 * The binaries stay zero-argument reproducible (every knob has a
 * default), but sweeps want to run one policy at a time and land
 * results in machine-readable form without recompiling. Flags are
 * GNU-ish: `--flag` (boolean), `--flag=value` or `--flag value`.
 * Unknown flags are an error so typos fail loudly instead of silently
 * running the default experiment.
 */

#ifndef LAER_CORE_CLI_HH
#define LAER_CORE_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

namespace laer
{

/** Parsed command line: flags with optional values. */
class CliArgs
{
  public:
    /**
     * Parse argv. Every argument must start with `--`; a value is
     * attached with `=` or as the following non-flag argument.
     * @param argc     From main().
     * @param argv     From main().
     * @param allowed  Flag names (without `--`) the binary accepts;
     *                 anything else throws FatalError.
     */
    CliArgs(int argc, const char *const *argv,
            const std::vector<std::string> &allowed);

    /** True when `--name` was given (with or without a value). */
    bool has(const std::string &name) const;

    /**
     * Value of `--name`, or `fallback` when absent.
     * @param name      Flag name without the dashes.
     * @param fallback  Returned when the flag was not given.
     */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /**
     * Comma-split value of `--name` (e.g. `--policy=LAER,StaticEP`);
     * empty when the flag is absent.
     */
    std::vector<std::string> getList(const std::string &name) const;

    /**
     * getList() of `--name` with every item checked against `allowed`
     * (e.g. the policy names a bench knows); an unknown item throws
     * FatalError listing the allowed names.
     */
    std::vector<std::string>
    getChoices(const std::string &name,
               const std::vector<std::string> &allowed) const;

    /**
     * Unsigned-integer value of `--name` (e.g. `--seed=42`), or
     * `fallback` when absent. A malformed or out-of-range value
     * throws FatalError so the binary fails with a usage message
     * instead of std::terminate.
     */
    std::uint64_t getUint(const std::string &name,
                          std::uint64_t fallback) const;

    /**
     * Floating-point value of `--name` (e.g. `--tuner-budget-ms=7.5`),
     * or `fallback` when absent. Malformed values throw FatalError.
     */
    double getDouble(const std::string &name, double fallback) const;

  private:
    std::vector<std::pair<std::string, std::string>> flags_;
};

} // namespace laer

#endif // LAER_CORE_CLI_HH
