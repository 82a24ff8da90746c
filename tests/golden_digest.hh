/**
 * @file
 * Golden digests shared by the byte-pinning tests: each entry is one
 * "name bytes hash" line (the hash a 64-bit FNV-1a of the entry's
 * bytes), compared with a committed file under tests/golden/.
 */

#ifndef UAVF1_TESTS_GOLDEN_DIGEST_HH
#define UAVF1_TESTS_GOLDEN_DIGEST_HH

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace uavf1::test {

/** 64-bit FNV-1a. */
inline std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** One digest line: "name bytes hash". `name` holds no space. */
inline std::string
digestLine(const std::string &name, const std::string &bytes)
{
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, fnv1a(bytes));
    return name + " " + std::to_string(bytes.size()) + " " + hash;
}

/**
 * Compare `lines` with the golden file at `path`. Each entry that
 * differs, is new or is no longer written fails by name, and any
 * failure prints the regenerated file.
 */
inline void
expectMatchesGolden(const std::vector<std::string> &lines,
                    const std::string &path)
{
    const auto nameOf = [](const std::string &line) {
        return line.substr(0, line.find(' '));
    };
    std::map<std::string, std::string> golden;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        golden[nameOf(line)] = line;
    std::string regenerated;
    bool same = true;
    for (const auto &line : lines) {
        regenerated += line + "\n";
        const auto it = golden.find(nameOf(line));
        if (it == golden.end() || it->second != line) {
            ADD_FAILURE() << "differs: " << line << " (digest: "
                          << (it == golden.end() ? "none" : it->second)
                          << ")";
            same = false;
        }
        if (it != golden.end())
            golden.erase(it);
    }
    for (const auto &[name, line] : golden) {
        ADD_FAILURE() << "no longer written: " << line;
        same = false;
    }
    EXPECT_TRUE(same) << "regenerated " << path << ":\n" << regenerated;
}

} // namespace uavf1::test

#endif // UAVF1_TESTS_GOLDEN_DIGEST_HH
