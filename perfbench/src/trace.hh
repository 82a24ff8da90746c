/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are emitted only by the benchmark's own code, around its
 * calls into each library layer, and only from the benchmark's main
 * thread (library worker threads are never traced). Each span
 * records its layer, name, start and end, the span that encloses it
 * and the top-level operation it belongs to. Nothing is written
 * until the run ends: writeChromeTrace() emits Chrome trace-event
 * JSON (viewable in Perfetto or chrome://tracing) and
 * selfTimeTable() the per-layer self time — a span's duration minus
 * the time its child spans cover.
 *
 * A disabled tracer records nothing; opening a span then costs one
 * branch.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench {

class Tracer
{
  public:
    /** RAII handle of one open span; closes it on destruction. */
    class Span
    {
      public:
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        ~Span();

      private:
        friend class Tracer;
        Span(Tracer *tracer, std::size_t index)
            : _tracer(tracer), _index(index)
        {}
        Tracer *_tracer; ///< Null when the tracer was disabled.
        std::size_t _index;
    };

    explicit Tracer(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /** Switch recording on or off between spans (never while one
     * is open). */
    void setEnabled(bool enabled) { _enabled = enabled; }

    /** Open a top-level operation span with a fresh operation id. */
    [[nodiscard]] Span op(const std::string &name);

    /** Open a span in `layer`, child of the innermost open span. */
    [[nodiscard]] Span span(const char *layer, const std::string &name);

    /** Number of spans recorded. */
    std::size_t size() const { return _records.size(); }

    /** Write every span as Chrome trace-event JSON. */
    void writeChromeTrace(const std::string &path) const;

    /** Per-layer span count, total and self time, as a text table. */
    std::string selfTimeTable() const;

  private:
    struct Record
    {
        std::string name;
        const char *layer;
        std::uint64_t id;     ///< 1-based span id.
        std::uint64_t parent; ///< Enclosing span id; 0 at top level.
        std::uint64_t op;     ///< Top-level operation id.
        std::int64_t startNs;
        std::int64_t endNs;
    };

    Span open(const char *layer, const std::string &name, bool top);
    void close(std::size_t index);
    std::int64_t nowNs() const;

    bool _enabled;
    std::vector<Record> _records;
    std::vector<std::size_t> _open; ///< Indices of open spans.
    std::uint64_t _ops = 0;
    Clock::time_point _epoch = Clock::now();
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
