#include "common.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace ernn::perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return seconds(t0, Clock::now());
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<std::size_t>
fastestQuarter(const std::vector<double> &rates)
{
    std::vector<std::size_t> idx(rates.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return rates[a] > rates[b];
    });
    idx.resize(std::min(idx.size(), std::max<std::size_t>(
                                        1, rates.size() / 4)));
    return idx;
}

double
meanOf(const std::vector<double> &v, const std::vector<std::size_t> &idx)
{
    double sum = 0.0;
    for (std::size_t i : idx)
        sum += v[i];
    return idx.empty() ? 0.0 : sum / double(idx.size());
}

double
interquartileMean(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i)
        sum += v[i];
    return hi > lo ? sum / double(hi - lo) : 0.0;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

void
Result::check(bool ok, const std::string &what)
{
    if (!ok) {
        correct = false;
        failures.push_back(what);
    }
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

Tracer::Scope::Scope(Tracer &t, const char *name)
    : tracer_(&t), index_(-1)
{
    if (!t.enabled_)
        return;
    Span s;
    s.name = name;
    s.start = secondsSince(t.epoch_);
    s.parent = t.open_.empty() ? -1 : t.open_.back();
    index_ = static_cast<int>(t.spans_.size());
    t.spans_.push_back(std::move(s));
    t.open_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    tracer_->spans_[static_cast<std::size_t>(index_)].end =
        secondsSince(tracer_->epoch_);
    tracer_->open_.pop_back();
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const auto &s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    // Children of one span never overlap (one thread, strict nesting),
    // so the part of a span its children cover is their summed length.
    std::vector<double> childCover(spans_.size(), 0.0);
    for (const auto &s : spans_)
        if (s.parent >= 0)
            childCover[static_cast<std::size_t>(s.parent)] +=
                s.end - s.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] += (s.end - s.start) - childCover[i];
    }
    return self;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
            << "\",\"cat\":\"" << s.name.substr(0, s.name.find('.'))
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<long long>(s.start * 1e6)
            << ",\"dur\":"
            << static_cast<long long>((s.end - s.start) * 1e6)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace ernn::perfbench
