/**
 * @file
 * Skyline report writer: the stand-alone equivalent of the web
 * tool's three panes (knobs, visualization, analysis) as a
 * self-contained HTML file with the embedded SVG roofline.
 */

#ifndef UAVF1_SKYLINE_REPORT_HH
#define UAVF1_SKYLINE_REPORT_HH

#include <string>

#include "skyline/session.hh"

namespace uavf1::skyline {

/**
 * Renders sessions to reports.
 */
class ReportWriter
{
  public:
    /** Self-contained HTML report with the SVG roofline embedded. */
    static std::string html(const SkylineSession &session,
                            const std::string &title);

    /**
     * Write the HTML report to a file.
     *
     * @throws ModelError if the file cannot be written
     */
    static void writeHtml(const SkylineSession &session,
                          const std::string &title,
                          const std::string &path);

    /**
     * Write any rendered report document to a file (shared by the
     * scenario runner's HTML artifact path).
     *
     * @throws ModelError if the file cannot be written
     */
    static void writeFile(const std::string &content,
                          const std::string &path);
};

} // namespace uavf1::skyline

#endif // UAVF1_SKYLINE_REPORT_HH
