/**
 * @file
 * Shared plumbing of the benchmark program: timing, order statistics,
 * the result record every workload fills, and the span tracer that the
 * traced run uses to attribute time to libernn's layers.
 *
 * Spans are recorded by the benchmark's own code around its calls into
 * each layer's public functions; nothing inside libernn is
 * instrumented. A span's layer is the part of its name before the
 * first '.', e.g. "serve.wait" belongs to layer "serve".
 */
#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

namespace ernn::perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Seconds between two time points. */
double seconds(Clock::time_point a, Clock::time_point b);

/** Linear-interpolated quantile (q in [0, 1]) of @p v; 0 if empty. */
double quantile(std::vector<double> v, double q);

inline double median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Indices of the fastest quarter (at least one) of @p rates, for
 * rounds that all do identical work: the rounds least slowed by other
 * load on the host, whose speed drifts over tens of seconds.
 */
std::vector<std::size_t> fastestQuarter(const std::vector<double> &rates);

/** Mean of @p v over the indices @p idx. */
double meanOf(const std::vector<double> &v,
              const std::vector<std::size_t> &idx);

/** Mean of the middle half of @p v (the interquartile mean). */
double interquartileMean(std::vector<double> v);

/** Peak resident set size of this process (VmHWM), in MB. */
double peakRssMb();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Names of the correctness checks that failed (printed). */
    std::vector<std::string> failures;

    /** Record a check outcome; a false @p ok clears correct. */
    void check(bool ok, const std::string &what);
};

/**
 * Run one operation of a workload. libernn reports a refused
 * operation (a submit to a full or stopped server, a step on a closed
 * stream) by throwing; such an operation counts as failed in
 * @p failed, the first one's reason goes to stderr, and the call
 * returns false.
 */
template <class Op>
bool
attempt(std::uint64_t &failed, Op &&op)
{
    try {
        op();
        return true;
    } catch (const std::exception &e) {
        if (failed++ == 0)
            std::fprintf(stderr, "operation failed: %s\n", e.what());
        return false;
    }
}

/** Knobs of one workload run, straight from the command line. */
struct RunArgs
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_out";
};

/**
 * In-memory span recorder. Disabled, every call is a cheap no-op; the
 * untraced run measures the end-to-end metrics that way. Spans nest by
 * a per-tracer stack, so one tracer must be driven from one thread.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; //!< seconds since the tracer's epoch
        double end = 0.0;
        int parent = -1;    //!< index into spans(), -1 for a root
    };

    explicit Tracer(bool enabled = false);

    bool enabled() const { return enabled_; }

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        int index_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration of every span called @p name, in seconds. */
    double total(const std::string &name) const;

    /** Self time per layer: each span minus what its children cover. */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write every span as Chrome trace-event JSON ("X" events). */
    void writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace ernn::perfbench

#endif // PERFBENCH_COMMON_HH
