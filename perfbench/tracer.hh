/**
 * @file
 * In-memory span recorder for the traced run. The benchmark opens a span
 * around each call it makes into a layer of the library: name, start,
 * end, parent span, workload, thread, plus a work count (instructions,
 * events, accesses) so layer throughputs are measured where the work
 * happens. Spans stay in memory and are written out once, at exit.
 */

#ifndef LOOPSPEC_PERFBENCH_TRACER_HH
#define LOOPSPEC_PERFBENCH_TRACER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    static constexpr uint32_t noParent = UINT32_MAX;

    const char *name = "";
    const char *tag = ""; //!< e.g. the policy family of a cell
    std::string workload;
    uint32_t parent = noParent;
    uint32_t thread = 0;
    double start = 0.0;
    double end = 0.0;
    uint64_t work = 0;

    double seconds() const { return end - start; }
};

class Tracer
{
  public:
    /** Open a span now; returns its id within this tracer. */
    uint32_t open(const char *name, uint32_t parent,
                  const std::string &workload, const char *tag = "");
    /** Close span @p id now, recording @p work units done inside it. */
    void close(uint32_t id, uint64_t work);

    std::vector<Span> spans() const;

  private:
    mutable std::mutex mtx;
    std::vector<Span> all; //!< guarded by mtx
};

/** Write @p spans to @p path, one JSON object per line. */
void writeSpans(const std::string &path, const std::vector<Span> &spans);

/** Span over a scope; the work count can be set before it closes. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, uint32_t parent,
               const std::string &workload = "", const char *tag = "")
        : tracer(tracer), spanId(tracer.open(name, parent, workload, tag))
    {
    }
    ~ScopedSpan() { tracer.close(spanId, work); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint32_t id() const { return spanId; }
    void setWork(uint64_t units) { work = units; }

  private:
    Tracer &tracer;
    uint32_t spanId;
    uint64_t work = 0;
};

} // namespace perfbench

#endif // LOOPSPEC_PERFBENCH_TRACER_HH
