#include "exion/common/numa.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#if defined(__linux__)
#include <dirent.h>
#endif

namespace exion
{

std::vector<int>
parseCpuList(const std::string &text)
{
    std::vector<int> cpus;
    size_t at = 0;
    while (at < text.size()) {
        size_t comma = text.find(',', at);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string field = text.substr(at, comma - at);
        at = comma + 1;
        if (field.empty() || field == "\n")
            continue;
        char *end = nullptr;
        const long lo = std::strtol(field.c_str(), &end, 10);
        if (end == field.c_str() || lo < 0)
            continue;
        long hi = lo;
        if (*end == '-') {
            const char *hi_begin = end + 1;
            hi = std::strtol(hi_begin, &end, 10);
            if (end == hi_begin || hi < lo)
                continue;
        }
        for (long cpu = lo; cpu <= hi; ++cpu)
            cpus.push_back(static_cast<int>(cpu));
    }
    std::sort(cpus.begin(), cpus.end());
    cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
    return cpus;
}

std::vector<std::vector<int>>
numaNodeCpus()
{
#if defined(__linux__)
    const char *base = "/sys/devices/system/node";
    DIR *d = ::opendir(base);
    if (d == nullptr)
        return {};
    std::vector<int> node_ids;
    while (const dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() <= 4 || name.compare(0, 4, "node") != 0)
            continue;
        char *end = nullptr;
        const long id = std::strtol(name.c_str() + 4, &end, 10);
        if (*end != '\0' || id < 0)
            continue;
        node_ids.push_back(static_cast<int>(id));
    }
    ::closedir(d);
    std::sort(node_ids.begin(), node_ids.end());

    std::vector<std::vector<int>> nodes;
    for (int id : node_ids) {
        const std::string path =
            std::string(base) + "/node" + std::to_string(id)
            + "/cpulist";
        std::FILE *f = std::fopen(path.c_str(), "r");
        if (f == nullptr)
            continue;
        char buf[4096];
        std::string text;
        const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
        std::fclose(f);
        buf[n] = '\0';
        text = buf;
        std::vector<int> cpus = parseCpuList(text);
        if (!cpus.empty())
            nodes.push_back(std::move(cpus));
    }
    return nodes;
#else
    return {};
#endif
}

} // namespace exion
