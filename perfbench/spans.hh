#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

/**
 * @file
 * In-memory span log for the benchmark's traced run.
 *
 * Spans are recorded from the driver's own code around each call into
 * a layer's public API; nothing inside the simulator is instrumented.
 * They stay in memory until the run ends, and are then written in the
 * Chrome trace-event JSON format, which Perfetto (ui.perfetto.dev)
 * and chrome://tracing open.
 *
 * A span's self time is its duration minus the time its child spans
 * cover. Children nest strictly inside their parent: a span opened
 * while another is open becomes its child.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

class SpanLog
{
  public:
    /** @p track names this log's row in the trace viewer. */
    SpanLog(Clock::time_point origin, int trackId, std::string track)
        : origin_(origin), trackId_(trackId), track_(std::move(track))
    {
    }

    /** Spans opened from now on belong to op @p op (their shared id). */
    void setOp(std::uint64_t op) { op_ = op; }

    /** Open a span as a child of the innermost open span. */
    std::size_t
    open(const char *name)
    {
        spans_.push_back({name, usSinceOrigin(Clock::now()), 0.0,
                          parentOfNext(), op_, false});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(std::size_t id)
    {
        Span &s = spans_[id];
        s.durUs = usSinceOrigin(Clock::now()) - s.startUs;
        stack_.pop_back();
    }

    /**
     * Add a child of the innermost open span whose duration the
     * program reported (RunPerf::wallSec) but whose start the driver
     * cannot see. It is placed to end now, or, when several are given,
     * back to back ending now; it never starts before the parent's
     * last recorded child ends. Marked "derived" in the trace file.
     */
    void
    addDerived(const char *name, const std::vector<double> &durSec)
    {
        const std::int64_t parent = parentOfNext();
        double floorUs = 0.0;
        if (parent >= 0) {
            const auto p = static_cast<std::size_t>(parent);
            floorUs = spans_[p].startUs;
            for (std::size_t i = p + 1; i < spans_.size(); ++i) {
                if (spans_[i].parent == parent)
                    floorUs = std::max(floorUs,
                                       spans_[i].startUs + spans_[i].durUs);
            }
        }
        double endUs = usSinceOrigin(Clock::now());
        std::vector<Span> placed;
        for (auto it = durSec.rbegin(); it != durSec.rend(); ++it) {
            const double startUs = std::max(floorUs, endUs - *it * 1e6);
            placed.push_back(
                {name, startUs, endUs - startUs, parent, op_, true});
            endUs = startUs;
        }
        spans_.insert(spans_.end(), placed.rbegin(), placed.rend());
    }

    /** Self time in seconds per span name, summed over its spans. */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> childUs(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                childUs[static_cast<std::size_t>(s.parent)] += s.durUs;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] +=
                std::max(0.0, spans_[i].durUs - childUs[i]) / 1e6;
        return out;
    }

    /** Append this log's events (comma-separated trace-event objects,
     *  with a leading comma when @p first is false). */
    void
    writeEvents(std::ostream &os, bool first) const
    {
        os << (first ? "" : ",\n") << R"({"ph":"M","pid":1,"tid":)"
           << trackId_ << R"(,"name":"thread_name","args":{"name":")"
           << track_ << "\"}}";
        for (const Span &s : spans_) {
            os << ",\n"
               << R"({"ph":"X","pid":1,"tid":)" << trackId_
               << R"(,"name":")" << s.name << R"(","ts":)" << s.startUs
               << R"(,"dur":)" << s.durUs << R"(,"args":{"op":)" << s.op;
            if (s.derived)
                os << R"(,"derived":true)";
            os << "}}";
        }
    }

  private:
    struct Span
    {
        std::string name;
        double startUs;
        double durUs;
        std::int64_t parent;  //!< index into spans_, -1 = root
        std::uint64_t op;
        bool derived;
    };

    double
    usSinceOrigin(Clock::time_point t) const
    {
        return secondsBetween(origin_, t) * 1e6;
    }

    std::int64_t
    parentOfNext() const
    {
        return stack_.empty() ? -1
                              : static_cast<std::int64_t>(stack_.back());
    }

    Clock::time_point origin_;
    int trackId_;
    std::string track_;
    std::uint64_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** RAII span; with a null log it records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name)
        : log_(log), id_(log ? log->open(name) : 0)
    {
    }

    ~SpanScope()
    {
        if (log_)
            log_->close(id_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    std::size_t id_;
};

/** Write @p logs as one Chrome trace-event file. */
inline bool
writeTraceFile(const std::string &path, const std::string &hostJson,
               const std::vector<const SpanLog *> &logs)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    os << std::fixed << std::setprecision(3);
    os << "{\"otherData\":" << hostJson << ",\n\"traceEvents\":[\n";
    bool first = true;
    for (const SpanLog *log : logs) {
        log->writeEvents(os, first);
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
