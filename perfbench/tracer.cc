#include "tracer.hh"

#include <atomic>
#include <fstream>

#include "common.hh"

namespace perfbench
{

namespace
{

/** Small dense per-thread id (0 = first thread that opened a span). */
uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t mine = next.fetch_add(1);
    return mine;
}

} // namespace

uint32_t
Tracer::open(const char *name, uint32_t parent, const std::string &workload,
             const char *tag)
{
    Span s;
    s.name = name;
    s.tag = tag;
    s.workload = workload;
    s.parent = parent;
    s.thread = threadIndex();
    s.start = wallNow();
    std::lock_guard<std::mutex> lock(mtx);
    all.push_back(std::move(s));
    return static_cast<uint32_t>(all.size() - 1);
}

void
Tracer::close(uint32_t id, uint64_t work)
{
    const double end = wallNow();
    std::lock_guard<std::mutex> lock(mtx);
    all[id].end = end;
    all[id].work = work;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return all;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    if (!os)
        return;
    const double origin = spans.empty() ? 0.0 : spans.front().start;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << format("{\"id\": %zu, \"name\": \"%s\", \"tag\": \"%s\", "
                     "\"workload\": \"%s\", \"parent\": %lld, "
                     "\"thread\": %u, \"start_s\": %.9f, \"end_s\": %.9f, "
                     "\"work\": %llu}\n",
                     i, s.name, s.tag, s.workload.c_str(),
                     s.parent == Span::noParent
                         ? -1LL
                         : static_cast<long long>(s.parent),
                     s.thread, s.start - origin, s.end - origin,
                     static_cast<unsigned long long>(s.work));
    }
}

} // namespace perfbench
