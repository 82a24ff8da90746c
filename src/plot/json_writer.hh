/**
 * @file
 * Minimal JSON emission for study/scenario artifacts.
 *
 * Self-contained like the SVG and CSV writers: an ordered
 * object/array builder good enough for metric dumps, with correct
 * string escaping and round-trippable number formatting. Not a
 * parser.
 */

#ifndef UAVF1_PLOT_JSON_WRITER_HH
#define UAVF1_PLOT_JSON_WRITER_HH

#include <string>
#include <vector>

namespace uavf1::plot {

/** JSON scalar formatting helpers. */
struct Json
{
    /** Quote and escape a string value. */
    static std::string str(const std::string &value);

    /** Format a number (non-finite values map to null). */
    static std::string num(double value);
};

/** An ordered JSON object under construction. */
class JsonObject
{
  public:
    /** Add a string member. */
    JsonObject &add(const std::string &key, const std::string &value);

    /** Add a numeric member. */
    JsonObject &add(const std::string &key, double value);

    /** Add a member whose value is already-rendered JSON. */
    JsonObject &addRaw(const std::string &key, const std::string &json);

    /** Render as a JSON object. */
    std::string render() const;

  private:
    std::vector<std::string> _members;
};

/** An ordered JSON array of already-rendered elements. */
class JsonArray
{
  public:
    /** Append an already-rendered JSON value. */
    JsonArray &add(const std::string &json);

    /** Render as a JSON array. */
    std::string render() const;

  private:
    std::vector<std::string> _elements;
};

/**
 * Write a rendered JSON document to a file.
 *
 * @throws ModelError if the file cannot be written
 */
void writeJsonFile(const std::string &json, const std::string &path);

} // namespace uavf1::plot

#endif // UAVF1_PLOT_JSON_WRITER_HH
