#include "stats.hh"

#include <cmath>

#include "logging.hh"

namespace pmemspec
{

Histogram::Histogram(double lo_, double hi_, std::size_t buckets)
    : lo(lo_), hi(hi_),
      width(buckets ? (hi_ - lo_) / buckets : 1),
      bins(buckets, 0)
{
    fatal_if(hi_ <= lo_ || buckets == 0,
             "histogram needs hi > lo and at least one bucket");
}

void
Histogram::sample(double v)
{
    ++total;
    sum += v;
    if (v < lo) {
        ++underflow;
    } else if (v >= hi) {
        ++overflow;
    } else {
        auto idx = static_cast<std::size_t>((v - lo) / width);
        if (idx >= bins.size())
            idx = bins.size() - 1; // fp rounding at the upper edge
        ++bins[idx];
    }
}

double
Histogram::quantile(double q) const
{
    if (total == 0)
        return 0;
    if (q < 0)
        q = 0;
    if (q > 1)
        q = 1;
    // Nearest-rank with in-bucket interpolation: find the bucket that
    // holds the quantileRank(q, total)-th sample (1-based).
    const std::uint64_t target = quantileRank(q, total);
    std::uint64_t cum = underflow;
    if (cum >= target)
        return lo;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        if (cum + bins[i] >= target) {
            const double frac =
                static_cast<double>(target - cum) /
                static_cast<double>(bins[i]);
            return lo + (static_cast<double>(i) + frac) * width;
        }
        cum += bins[i];
    }
    return hi;
}

void
Histogram::reset()
{
    std::fill(bins.begin(), bins.end(), 0);
    underflow = overflow = total = 0;
    sum = 0;
}

StatGroup::StatGroup(std::string name, StatGroup *parent_)
    : groupName(std::move(name)), parent(parent_)
{
    if (parent)
        parent->children.push_back(this);
}

void
StatGroup::addCounter(const std::string &name, const Counter *c,
                      const std::string &desc)
{
    counters.push_back({name, c, desc});
}

void
StatGroup::addAccumulator(const std::string &name, const Accumulator *a,
                          const std::string &desc)
{
    accums.push_back({name, a, desc});
}

void
StatGroup::addHistogram(const std::string &name, const Histogram *h,
                        const std::string &desc)
{
    hists.push_back({name, h, desc});
}

const Counter *
StatGroup::findCounter(const std::string &name) const
{
    for (const auto &e : counters)
        if (e.name == name)
            return e.counter;
    return nullptr;
}

std::string
StatGroup::fullName() const
{
    if (!parent)
        return groupName;
    return parent->fullName() + "." + groupName;
}

void
StatGroup::dump(std::ostream &os) const
{
    const std::string prefix = fullName();
    for (const auto &e : counters) {
        os << prefix << '.' << e.name << ' ' << e.counter->value();
        if (!e.desc.empty())
            os << " # " << e.desc;
        os << '\n';
    }
    for (const auto &e : accums) {
        os << prefix << '.' << e.name << ".mean " << e.accum->mean()
           << " (n=" << e.accum->samples() << ")";
        if (!e.desc.empty())
            os << " # " << e.desc;
        os << '\n';
    }
    for (const auto &e : hists) {
        os << prefix << '.' << e.name << ".mean " << e.hist->mean()
           << " (n=" << e.hist->samples() << ")";
        if (!e.desc.empty())
            os << " # " << e.desc;
        os << '\n';
    }
    for (const auto *child : children)
        child->dump(os);
}

void
StatGroup::visit(const StatVisitor &fn) const
{
    const std::string prefix = fullName() + ".";
    for (const auto &e : counters)
        fn({prefix + e.name,
            static_cast<double>(e.counter->value()), e.desc});
    for (const auto &e : accums) {
        fn({prefix + e.name + ".mean", e.accum->mean(), e.desc});
        fn({prefix + e.name + ".min", e.accum->min(), e.desc});
        fn({prefix + e.name + ".max", e.accum->max(), e.desc});
        fn({prefix + e.name + ".samples",
            static_cast<double>(e.accum->samples()), e.desc});
    }
    for (const auto &e : hists) {
        fn({prefix + e.name + ".mean", e.hist->mean(), e.desc});
        fn({prefix + e.name + ".samples",
            static_cast<double>(e.hist->samples()), e.desc});
        fn({prefix + e.name + ".underflows",
            static_cast<double>(e.hist->underflows()), e.desc});
        fn({prefix + e.name + ".overflows",
            static_cast<double>(e.hist->overflows()), e.desc});
        fn({prefix + e.name + ".p50", e.hist->quantile(0.50), e.desc});
        fn({prefix + e.name + ".p90", e.hist->quantile(0.90), e.desc});
        fn({prefix + e.name + ".p99", e.hist->quantile(0.99), e.desc});
    }
    for (const auto *child : children)
        child->visit(fn);
}

std::vector<StatValue>
StatGroup::flatten() const
{
    std::vector<StatValue> out;
    visit([&out](const StatValue &sv) { out.push_back(sv); });
    return out;
}

Json
StatGroup::toJson() const
{
    Json obj = Json::object();
    visit([&obj](const StatValue &sv) {
        // Counters and sample counts are exact unsigned values;
        // everything integral stays integral in the JSON.
        const auto u = static_cast<std::uint64_t>(sv.value);
        if (sv.value >= 0 && static_cast<double>(u) == sv.value)
            obj.set(sv.name, Json(u));
        else
            obj.set(sv.name, Json(sv.value));
    });
    return obj;
}

void
StatGroup::resetAll()
{
    for (auto &e : counters)
        const_cast<Counter *>(e.counter)->reset();
    for (auto &e : accums)
        const_cast<Accumulator *>(e.accum)->reset();
    for (auto &e : hists)
        const_cast<Histogram *>(e.hist)->reset();
    for (auto *child : children)
        child->resetAll();
}

double
geomean(const std::vector<double> &vals)
{
    if (vals.empty())
        return 0;
    double log_sum = 0;
    for (double v : vals)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(vals.size()));
}

} // namespace pmemspec
