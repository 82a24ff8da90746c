/**
 * @file
 * Tracer implementation.
 */

#include "trace.hh"

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

/** JSON string literal with the escapes span names can need. */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

Tracer::Span::~Span()
{
    if (_tracer)
        _tracer->close(_index);
}

Tracer::Span
Tracer::op(const std::string &name)
{
    return open("op", name, true);
}

Tracer::Span
Tracer::span(const char *layer, const std::string &name)
{
    return open(layer, name, false);
}

Tracer::Span
Tracer::open(const char *layer, const std::string &name, bool top)
{
    if (!_enabled)
        return Span(nullptr, 0);
    Record record;
    record.name = name;
    record.layer = layer;
    record.id = _records.size() + 1;
    if (top || _open.empty()) {
        record.parent = 0;
        record.op = ++_ops;
    } else {
        const Record &parent = _records[_open.back()];
        record.parent = parent.id;
        record.op = parent.op;
    }
    record.startNs = nowNs();
    record.endNs = record.startNs;
    _records.push_back(std::move(record));
    _open.push_back(_records.size() - 1);
    return Span(this, _records.size() - 1);
}

void
Tracer::close(std::size_t index)
{
    _records[index].endNs = nowNs();
    // Spans are scoped objects, so they close innermost-first.
    if (!_open.empty() && _open.back() == index)
        _open.pop_back();
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - _epoch)
        .count();
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < _records.size(); ++i) {
        const Record &r = _records[i];
        char times[96];
        std::snprintf(times, sizeof times,
                      "\"ts\": %.3f, \"dur\": %.3f",
                      static_cast<double>(r.startNs) / 1e3,
                      static_cast<double>(r.endNs - r.startNs) / 1e3);
        out << "{\"name\": " << quoted(r.name) << ", \"cat\": "
            << quoted(r.layer) << ", \"ph\": \"X\", " << times
            << ", \"pid\": 1, \"tid\": 1, \"args\": {\"id\": " << r.id
            << ", \"parent\": " << r.parent << ", \"op\": " << r.op
            << "}}" << (i + 1 < _records.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    out.flush();
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
}

std::string
Tracer::selfTimeTable() const
{
    // Children of one span run one after another on the main thread,
    // so the time they cover is the sum of their durations.
    std::vector<std::int64_t> childNs(_records.size(), 0);
    for (const Record &r : _records) {
        if (r.parent != 0)
            childNs[r.parent - 1] += r.endNs - r.startNs;
    }
    struct Row
    {
        std::size_t spans = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < _records.size(); ++i) {
        const Record &r = _records[i];
        Row &row = rows[r.layer];
        ++row.spans;
        row.totalMs += static_cast<double>(r.endNs - r.startNs) / 1e6;
        row.selfMs +=
            static_cast<double>(r.endNs - r.startNs - childNs[i]) / 1e6;
    }
    std::string out = "layer        spans    total_ms     self_ms\n";
    for (const auto &[layer, row] : rows) {
        char line[128];
        std::snprintf(line, sizeof line, "%-10s %7zu %11.3f %11.3f\n",
                      layer.c_str(), row.spans, row.totalMs,
                      row.selfMs);
        out += line;
    }
    return out;
}

} // namespace perfbench
