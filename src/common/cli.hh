/**
 * @file
 * The command-line parser every bench, tool and example binary uses.
 *
 * A binary declares each flag as one kind: a switch (refuses a
 * value), a count (decimal digits only; zero allowed or refused per
 * flag), a string, or a callback (list values such as "--designs
 * A,B"); bare words go to the positionals. Both "--flag value" and
 * "--flag=value" are accepted, and the usage text is built from the
 * declarations.
 *
 * parseOrExit() is the binaries' entry point: a usage error prints
 * the error and the usage to stderr and exits 2 (gate verdicts use
 * 1); "--help" or "-h" prints the usage to stdout and exits 0.
 */

#ifndef PMEMSPEC_COMMON_CLI_HH
#define PMEMSPEC_COMMON_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace pmemspec::cli
{

/** Whether a count accepts 0. */
enum class Zero
{
    Refused,
    Allowed,
};

/**
 * Read @p text as a count for @p what: decimal digits only (no sign,
 * no blanks), at most @p max, and nonzero unless @p zero allows it.
 * @return "" with @p out set, or why the value was refused.
 */
std::string readCount(const std::string &what, const std::string &text,
                      Zero zero, std::uint64_t max, std::uint64_t &out);

/** Split @p list at every @p sep ("" gives one empty item). */
std::vector<std::string> split(const std::string &list, char sep);

class Parser
{
  public:
    /** Applies one value of a flag; returns "" or why it is refused. */
    using Apply = std::function<std::string(const std::string &value)>;

    enum class Status
    {
        Ok,
        Help,
        Error,
    };

    struct Result
    {
        Status status = Status::Ok;
        std::string error;
    };

    /** @p about, if given, is printed between synopsis and flags. */
    explicit Parser(std::string prog, std::string about = {});

    /** A switch: sets @p out; "--flag=value" is an error. */
    Parser &flag(const std::string &name, bool &out, std::string help);

    /** A count into any unsigned field, range-checked against it;
     *  the usage shows the field's current value as the default. */
    template <typename T>
    Parser &
    count(const std::string &name, T &out, Zero zero, std::string help)
    {
        static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>);
        help += " (default " + std::to_string(out) + ")";
        return callback(
            name, "N",
            [name, zero, &out](const std::string &v) {
                std::uint64_t n = 0;
                std::string why = readCount(
                    name, v, zero, std::numeric_limits<T>::max(), n);
                if (why.empty())
                    out = static_cast<T>(n);
                return why;
            },
            std::move(help));
    }

    Parser &string(const std::string &name, std::string &out,
                   std::string metavar, std::string help);

    /** A value handed to @p apply, once per occurrence. */
    Parser &callback(const std::string &name, std::string metavar,
                     Apply apply, std::string help);

    /** Collect bare words (anywhere among the flags) into @p out;
     *  @p synopsis shows them in the usage line. */
    Parser &positionals(std::vector<std::string> &out,
                        std::string synopsis);

    /** Parse the arguments after the program name. */
    Result parse(const std::vector<std::string> &args);

    /** Parse argv[1..]; exit 0 after --help, exit 2 on an error. */
    void parseOrExit(int argc, char **argv);

    /** Report a usage error found after parsing, as parseOrExit
     *  does, and exit 2. */
    [[noreturn]] void fail(const std::string &error) const;

    std::string usage() const;

  private:
    struct Decl
    {
        std::string name;
        /** Empty for a switch. */
        std::string metavar;
        std::string help;
        Apply apply;
    };

    std::string prog;
    std::string about;
    std::vector<Decl> decls;
    std::vector<std::string> *positional = nullptr;
    std::string positionalSynopsis;
};

} // namespace pmemspec::cli

#endif // PMEMSPEC_COMMON_CLI_HH
