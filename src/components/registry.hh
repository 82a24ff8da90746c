/**
 * @file
 * Generic name-keyed component registry.
 */

#ifndef UAVF1_COMPONENTS_REGISTRY_HH
#define UAVF1_COMPONENTS_REGISTRY_HH

#include <map>
#include <string>
#include <vector>

#include "support/errors.hh"
#include "support/strings.hh"

namespace uavf1::components {

/**
 * An ordered, name-keyed collection of components.
 *
 * T must expose `const std::string &name() const`. Lookups by unknown
 * name throw ModelError listing the known names, so CLI typos produce
 * actionable messages.
 */
template <typename T>
class Registry
{
  public:
    /** Add an item; duplicate names are rejected. */
    void
    add(T item)
    {
        const std::string key = item.name();
        if (_index.count(key)) {
            throw ModelError("duplicate catalog entry '" + key + "'");
        }
        _index.emplace(key, _items.size());
        _items.push_back(std::move(item));
    }

    /** True if an item with this name exists. */
    bool contains(const std::string &name) const
    {
        return _index.count(name) != 0;
    }

    /** Look up by exact name; throws ModelError with "did you
     * mean" suggestions (prefix/edit-distance) and the full
     * candidate list, led by `knob` when the name came from one. */
    const T &
    byName(const std::string &name, const std::string &knob = "") const
    {
        auto it = _index.find(name);
        if (it == _index.end()) {
            std::string message =
                (knob.empty() ? "" : "knob '" + knob + "': ") +
                "unknown catalog entry '" + name + "'";
            const auto suggestions = closestMatches(name, names());
            if (!suggestions.empty()) {
                message += "; did you mean: " +
                           join(suggestions, ", ") + "?";
            }
            throw ModelError(message + " (known entries: " +
                             join(names(), ", ") + ")");
        }
        return _items[it->second];
    }

    /** All names in insertion order. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(_items.size());
        for (const auto &item : _items)
            out.push_back(item.name());
        return out;
    }

    /** All items in insertion order. */
    const std::vector<T> &items() const { return _items; }

    /** Number of items. */
    std::size_t size() const { return _items.size(); }

  private:
    std::vector<T> _items;
    std::map<std::string, std::size_t> _index;
};

} // namespace uavf1::components

#endif // UAVF1_COMPONENTS_REGISTRY_HH
