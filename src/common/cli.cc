#include "cli.hh"

#include <cstdio>
#include <cstdlib>

#include "logging.hh"

namespace pmemspec::cli
{

std::string
readCount(const std::string &what, const std::string &text, Zero zero,
          std::uint64_t max, std::uint64_t &out)
{
    auto refuse = [&](const std::string &limit) {
        return what + " wants a " +
               (zero == Zero::Allowed ? "non-negative" : "positive") +
               " integer" + limit + ", got '" + text + "'";
    };
    // Digits only: strtoull would read "-1" as 2^64-1 and "abc" as 0.
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return refuse("");
    std::uint64_t v = 0;
    for (char c : text) {
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (digit > max || v > (max - digit) / 10)
            return refuse(" up to " + std::to_string(max));
        v = v * 10 + digit;
    }
    if (v == 0 && zero == Zero::Refused)
        return refuse("");
    out = v;
    return {};
}

std::vector<std::string>
split(const std::string &list, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0, end;
    while ((end = list.find(sep, pos)) != std::string::npos) {
        out.push_back(list.substr(pos, end - pos));
        pos = end + 1;
    }
    out.push_back(list.substr(pos));
    return out;
}

Parser::Parser(std::string prog, std::string about)
    : prog(std::move(prog)), about(std::move(about))
{
}

Parser &
Parser::flag(const std::string &name, bool &out, std::string help)
{
    return callback(name, {}, [&out](const std::string &) {
        out = true;
        return std::string();
    }, std::move(help));
}

Parser &
Parser::string(const std::string &name, std::string &out,
               std::string metavar, std::string help)
{
    return callback(name, std::move(metavar), [&out](const std::string &v) {
        out = v;
        return std::string();
    }, std::move(help));
}

Parser &
Parser::callback(const std::string &name, std::string metavar,
                 Apply apply, std::string help)
{
    panic_if(name.rfind("--", 0) != 0 || name == "--help",
             "bad flag name '%s'", name.c_str());
    for (const auto &d : decls)
        panic_if(d.name == name, "flag %s declared twice", name.c_str());
    decls.push_back(
        {name, std::move(metavar), std::move(help), std::move(apply)});
    return *this;
}

Parser &
Parser::positionals(std::vector<std::string> &out, std::string synopsis)
{
    positional = &out;
    positionalSynopsis = std::move(synopsis);
    return *this;
}

Parser::Result
Parser::parse(const std::vector<std::string> &args)
{
    auto error = [](std::string msg) {
        return Result{Status::Error, std::move(msg)};
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help" || arg == "-h")
            return {Status::Help, {}};
        if (arg.size() < 2 || arg[0] != '-') {
            if (!positional)
                return error("unexpected argument '" + arg + "'");
            positional->push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const Decl *decl = nullptr;
        for (const auto &d : decls)
            if (d.name == name)
                decl = &d;
        if (!decl)
            return error("unknown option '" + name + "'");
        std::string value;
        if (decl->metavar.empty()) {
            if (eq != std::string::npos)
                return error(name + " takes no value");
        } else if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
        } else if (i + 1 < args.size()) {
            value = args[++i];
        } else {
            return error("missing value for " + name);
        }
        if (std::string why = decl->apply(value); !why.empty())
            return error(std::move(why));
    }
    return {};
}

void
Parser::parseOrExit(int argc, char **argv)
{
    const Result r =
        parse(std::vector<std::string>(argv + 1, argv + argc));
    if (r.status == Status::Help) {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }
    if (r.status == Status::Error)
        fail(r.error);
}

void
Parser::fail(const std::string &error) const
{
    std::fprintf(stderr, "%s: %s\n%s", prog.c_str(), error.c_str(),
                 usage().c_str());
    std::exit(2);
}

std::string
Parser::usage() const
{
    std::string out = "usage: " + prog + " [options]" +
                      (positional ? " " + positionalSynopsis : "") +
                      "\n\n" + (about.empty() ? "" : about + "\n\n");
    // Help text starts in column 26, its continuation lines too.
    const std::string indent(26, ' ');
    auto entry = [&](const std::string &left, const std::string &help) {
        out += "  " + left;
        out += left.size() + 3 > indent.size()
                   ? "\n" + indent
                   : std::string(indent.size() - left.size() - 2, ' ');
        for (char c : help)
            out += c == '\n' ? "\n" + indent : std::string(1, c);
        out += '\n';
    };
    for (const auto &d : decls)
        entry(d.name + (d.metavar.empty() ? "" : " " + d.metavar), d.help);
    entry("--help", "print this usage and exit");
    return out;
}

} // namespace pmemspec::cli
