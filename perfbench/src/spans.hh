/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are opened and closed around calls into the pmodv modules
 * from the benchmark's own code; the program itself is not
 * instrumented. A span's layer is its name up to the first '.', so
 * "core.replay.libmpk" belongs to layer "core". Spans are kept in
 * memory and written out once, when the run ends. A disabled recorder
 * records nothing and costs one branch per open/close.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One closed (or still open, end < start) span. */
struct Span
{
    std::string name;
    double start = 0; ///< Seconds since the recorder's epoch.
    double end = -1;
    int parent = -1;  ///< Index of the enclosing span, -1 for a root.
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled)
        : enabled_(enabled), epoch_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its index. */
    int
    open(std::string name)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = std::move(name);
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.start = now();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    /** Close span @p id, which must be the innermost open one. */
    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = now();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time per layer, in seconds, of the tree rooted at span
     * @p root: each span's duration minus the part of it covered by
     * its direct children (children never overlap: the runner is
     * single-threaded).
     */
    std::map<std::string, double> selfSecondsByLayer(int root) const;

    /** All spans as a JSON array of {name,start_s,end_s,parent}. */
    void writeJson(std::ostream &os) const;

  private:
    double now() const { return secondsBetween(epoch_, Clock::now()); }

    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens in the constructor, closes in the destructor. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name)
        : rec_(rec), id_(rec.open(std::move(name)))
    {
    }
    ~ScopedSpan() { rec_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder &rec_;
    int id_;
};

/** Layer of a span name: the text before the first '.'. */
inline std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
