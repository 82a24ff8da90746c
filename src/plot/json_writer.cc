/**
 * @file
 * JSON emission helpers implementation.
 */

#include "plot/json_writer.hh"

#include <cmath>
#include "support/atomic_file.hh"
#include "support/strings.hh"

namespace uavf1::plot {

std::string
Json::str(const std::string &value)
{
    std::string out = "\"";
    for (const char c : value) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += strFormat("\\u%04x",
                                 static_cast<unsigned>(
                                     static_cast<unsigned char>(c)));
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
Json::num(double value)
{
    if (!std::isfinite(value))
        return "null";
    return strFormat("%.12g", value);
}

JsonObject &
JsonObject::add(const std::string &key, const std::string &value)
{
    return addRaw(key, Json::str(value));
}

JsonObject &
JsonObject::add(const std::string &key, const char *value)
{
    return addRaw(key, Json::str(value));
}

JsonObject &
JsonObject::add(const std::string &key, double value)
{
    return addRaw(key, Json::num(value));
}

JsonObject &
JsonObject::add(const std::string &key, bool value)
{
    return addRaw(key, value ? "true" : "false");
}

JsonObject &
JsonObject::addRaw(const std::string &key, const std::string &json)
{
    _members.push_back(Json::str(key) + ": " + json);
    return *this;
}

std::string
JsonObject::render() const
{
    std::string out = "{";
    out += join(_members, ", ");
    out += "}";
    return out;
}

JsonArray &
JsonArray::add(const std::string &json)
{
    _elements.push_back(json);
    return *this;
}

std::string
JsonArray::render() const
{
    std::string out = "[";
    out += join(_elements, ", ");
    out += "]";
    return out;
}

void
writeJsonFile(const std::string &json, const std::string &path)
{
    writeFileAtomic(path, json + "\n");
}

} // namespace uavf1::plot
