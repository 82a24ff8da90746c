/**
 * @file
 * ReportWriter implementation.
 */

#include "skyline/report.hh"

#include "plot/roofline_chart.hh"
#include "plot/svg_writer.hh"
#include "support/atomic_file.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace uavf1::skyline {

namespace {

/** The knob pane as a text table. */
std::string
knobTable(const SkylineSession &session)
{
    const Knobs &knobs = session.knobs();
    TextTable table({"Parameter", "Unit", "Value"});
    table.addRow({"Sensor Framerate", "Hz",
                  trimmedNumber(knobs.sensorFramerate.value())});
    table.addRow({"Compute TDP", "W",
                  trimmedNumber(knobs.computeTdp.value())});
    table.addRow({"Autonomy Algorithm", "-", knobs.algorithm});
    table.addRow({"Compute Runtime", "s",
                  trimmedNumber(knobs.computeRuntime.value(), 5)});
    table.addRow({"Sensor Range", "m",
                  trimmedNumber(knobs.sensorRange.value())});
    table.addRow({"Drone Weight", "g",
                  trimmedNumber(knobs.droneWeight.value())});
    table.addRow({"Rotor Pull", "g",
                  trimmedNumber(knobs.rotorPull.value())});
    table.addRow({"Payload Weight", "g",
                  trimmedNumber(knobs.payloadWeight.value())});
    return table.render();
}

} // namespace

std::string
ReportWriter::html(const SkylineSession &session,
                   const std::string &title)
{
    plot::Chart chart = plot::makeRooflineChart(
        title, {{session.knobs().algorithm,
                 session.model().curve(), true, true}});
    const std::string svg = plot::SvgWriter().render(chart);

    std::string analysis_html;
    for (const auto &line :
         splitAndTrim(session.renderAnalysis(), '\n')) {
        if (!line.empty())
            analysis_html += "<li>" + line + "</li>\n";
    }

    std::string knob_rows;
    for (const auto &line : splitAndTrim(knobTable(session), '\n')) {
        if (!line.empty())
            knob_rows += "<pre>" + line + "</pre>\n";
    }

    std::string html;
    html += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">";
    html += "<title>" + title + "</title>";
    html += "<style>body{font-family:Helvetica,Arial,sans-serif;"
            "max-width:960px;margin:24px auto;}h1{font-size:22px;}"
            "pre{margin:0;}ul{line-height:1.5;}</style>";
    html += "</head><body>\n";
    html += "<h1>" + title + "</h1>\n";
    html += "<h2>UAV System Parameter Knobs</h2>\n" + knob_rows;
    html += "<h2>Visualization</h2>\n" + svg;
    html += "<h2>Analysis</h2>\n<ul>\n" + analysis_html + "</ul>\n";
    html += "</body></html>\n";
    return html;
}

void
ReportWriter::writeHtml(const SkylineSession &session,
                        const std::string &title,
                        const std::string &path)
{
    writeFile(html(session, title), path);
}

void
ReportWriter::writeFile(const std::string &content,
                        const std::string &path)
{
    writeFileAtomic(path, content);
}

} // namespace uavf1::skyline
