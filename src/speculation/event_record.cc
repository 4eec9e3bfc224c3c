#include "speculation/event_record.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "dataspec/data_profiler.hh"
#include "util/logging.hh"

namespace loopspec
{

void
mergeDataCorrectness(LoopEventRecording &recording,
                     const DataSpecProfiler &profiler)
{
    const auto &flags = profiler.perIterationOk();
    const auto &reg_flags = profiler.perIterationLiveInOk();
    for (auto &x : recording.execs) {
        auto it = flags.find(x.execId);
        if (it != flags.end())
            x.iterDataOk = it->second;
        auto rit = reg_flags.find(x.execId);
        if (rit != reg_flags.end())
            x.iterLiveInOk = rit->second;
    }
}

std::pair<uint64_t, uint64_t>
ExecRecord::iterSegment(uint32_t j) const
{
    LOOPSPEC_ASSERT(j >= 2 && j <= iterCount, "iteration out of range");
    uint64_t start = iterBoundaries[j - 2];
    uint64_t end =
        (j < iterCount) ? iterBoundaries[j - 1] : endBoundary;
    return {start, end};
}

void
LoopEventRecorder::onExecStart(const ExecStartEvent &ev)
{
    ExecRecord r;
    r.execId = ev.execId;
    r.loop = ev.loop;
    r.branchAddr = ev.branchAddr;
    r.depth = ev.depth;
    r.parentExecId = ev.parentExecId;
    rec.execs.push_back(std::move(r));
    rec.loopEvents.push_back({ev.pos, ev.execId, ev.loop, 0, ev.depth,
                              LoopEventKind::ExecStart,
                              ExecEndReason::Close});
}

void
LoopEventRecorder::onIterStart(const IterEvent &ev)
{
    rec.loopEvents.push_back({ev.pos, ev.execId, ev.loop, ev.iterIndex,
                              ev.depth, LoopEventKind::IterStart,
                              ExecEndReason::Close});
}

void
LoopEventRecorder::onIterEnd(const IterEvent &ev)
{
    rec.loopEvents.push_back({ev.pos, ev.execId, ev.loop, ev.iterIndex,
                              ev.depth, LoopEventKind::IterEnd,
                              ExecEndReason::Close});
}

void
LoopEventRecorder::onExecEnd(const ExecEndEvent &ev)
{
    rec.loopEvents.push_back({ev.pos, ev.execId, ev.loop, ev.iterCount,
                              0, LoopEventKind::ExecEnd, ev.reason});
}

void
LoopEventRecorder::onSingleIterExec(const SingleIterExecEvent &ev)
{
    rec.loopEvents.push_back({ev.pos, 0, ev.loop, ev.branchAddr,
                              ev.depth, LoopEventKind::SingleIter,
                              ExecEndReason::Close});
}

std::string
deriveRecordingEvents(LoopEventRecording &rec)
{
    // Derive the simulator's SimEvent stream and the per-execution
    // boundaries from the recorded events (bulk pass, off the per-event
    // hot path). Exec ids are allocated densely by the detector starting
    // at 1, so a flat vector indexes the live executions; anything a
    // well-formed stream can't contain is a diagnostic, not an assert —
    // the container decoder runs this on untrusted files.
    rec.events.clear();
    rec.events.reserve(rec.loopEvents.size() / 2);
    for (ExecRecord &x : rec.execs) {
        x.iterBoundaries.clear();
        x.endBoundary = 0;
        x.iterCount = 0;
        x.endReason = ExecEndReason::Close;
    }
    std::vector<uint32_t> exec_index(rec.execs.size() + 1,
                                     UINT32_MAX); //!< execId -> idx
    size_t live_execs = 0;
    uint32_t next_exec = 0;
    auto find_exec = [&](uint64_t exec_id) -> uint32_t {
        return exec_id < exec_index.size() ? exec_index[exec_id]
                                           : UINT32_MAX;
    };
    for (const LoopEventRec &e : rec.loopEvents) {
        switch (e.kind) {
          case LoopEventKind::ExecStart: {
            if (next_exec >= rec.execs.size())
                return "more ExecStart events than exec records";
            if (e.execId >= exec_index.size())
                return strprintf("exec id %llu out of range",
                                 (unsigned long long)e.execId);
            exec_index[e.execId] = next_exec++;
            ++live_execs;
            break;
          }
          case LoopEventKind::IterStart: {
            uint32_t idx = find_exec(e.execId);
            if (idx == UINT32_MAX)
                return "IterStart for unknown exec";
            uint64_t boundary = e.pos + 1;
            rec.execs[idx].iterBoundaries.push_back(boundary);
            rec.events.push_back(
                {boundary, idx, e.aux, SimEventKind::IterStart});
            break;
          }
          case LoopEventKind::ExecEnd: {
            uint32_t idx = find_exec(e.execId);
            if (idx == UINT32_MAX)
                return "ExecEnd for unknown exec";
            ExecRecord &r = rec.execs[idx];
            r.endBoundary = e.pos + 1;
            r.iterCount = e.aux;
            r.endReason = e.reason;
            rec.events.push_back(
                {r.endBoundary, idx, e.aux, SimEventKind::ExecEnd});
            exec_index[e.execId] = UINT32_MAX;
            --live_execs;
            break;
          }
          case LoopEventKind::IterEnd:
          case LoopEventKind::SingleIter:
            break;
          default:
            return "bad loop event kind";
        }
    }
    if (next_exec != rec.execs.size())
        return "fewer ExecStart events than exec records";
    if (live_execs != 0)
        return "executions still open at trace end (missing flush?)";

    // The detector's flush reports positions one past the last retired
    // instruction; clamp all boundaries into [0, totalInstrs].
    for (auto &e : rec.events) {
        if (e.boundary > rec.totalInstrs)
            e.boundary = rec.totalInstrs;
    }
    for (auto &x : rec.execs) {
        if (x.endBoundary > rec.totalInstrs)
            x.endBoundary = rec.totalInstrs;
        for (auto &b : x.iterBoundaries) {
            if (b > rec.totalInstrs)
                b = rec.totalInstrs;
        }
    }
    return {};
}

void
LoopEventRecorder::onTraceDone(uint64_t total_instrs)
{
    LOOPSPEC_ASSERT(!done, "onTraceDone twice");
    done = true;
    rec.totalInstrs = total_instrs;
    std::string err = deriveRecordingEvents(rec);
    if (!err.empty())
        panic("recorded event stream inconsistent: %s", err.c_str());
}

LoopEventRecording
LoopEventRecorder::take()
{
    LOOPSPEC_ASSERT(done, "take() before onTraceDone");
    return std::move(rec);
}

std::string
compareRecordings(const LoopEventRecording &a,
                  const LoopEventRecording &b)
{
    if (a.totalInstrs != b.totalInstrs)
        return "recording totalInstrs differs";
    if (a.loopEvents.size() != b.loopEvents.size())
        return "recording loop-event count differs";
    for (size_t i = 0; i < a.loopEvents.size(); ++i) {
        const LoopEventRec &x = a.loopEvents[i];
        const LoopEventRec &y = b.loopEvents[i];
        if (x.pos != y.pos || x.execId != y.execId || x.loop != y.loop ||
            x.aux != y.aux || x.depth != y.depth || x.kind != y.kind ||
            x.reason != y.reason) {
            return strprintf("recording loop event %zu differs", i);
        }
    }
    if (a.execs.size() != b.execs.size())
        return "recording exec count differs";
    for (size_t i = 0; i < a.execs.size(); ++i) {
        const ExecRecord &x = a.execs[i];
        const ExecRecord &y = b.execs[i];
        if (x.execId != y.execId || x.loop != y.loop ||
            x.branchAddr != y.branchAddr || x.depth != y.depth ||
            x.parentExecId != y.parentExecId ||
            x.endBoundary != y.endBoundary ||
            x.iterCount != y.iterCount || x.endReason != y.endReason ||
            x.iterBoundaries != y.iterBoundaries) {
            return strprintf("recording exec record %zu differs", i);
        }
    }
    if (a.events.size() != b.events.size())
        return "recording sim-event count differs";
    for (size_t i = 0; i < a.events.size(); ++i) {
        const SimEvent &x = a.events[i];
        const SimEvent &y = b.events[i];
        if (x.boundary != y.boundary || x.execIdx != y.execIdx ||
            x.iterIndex != y.iterIndex || x.kind != y.kind)
            return strprintf("recording sim event %zu differs", i);
    }
    return {};
}

void
dispatchLoopEvent(const LoopEventRec &e, uint32_t branch_addr,
                  uint64_t parent_exec_id,
                  const std::vector<LoopListener *> &listeners)
{
    switch (e.kind) {
      case LoopEventKind::ExecStart: {
        ExecStartEvent ev{e.pos, e.execId, e.loop, branch_addr,
                          e.depth, parent_exec_id};
        for (auto *l : listeners)
            l->onExecStart(ev);
        break;
      }
      case LoopEventKind::IterStart: {
        IterEvent ev{e.pos, e.execId, e.loop, e.aux, e.depth};
        for (auto *l : listeners)
            l->onIterStart(ev);
        break;
      }
      case LoopEventKind::IterEnd: {
        IterEvent ev{e.pos, e.execId, e.loop, e.aux, e.depth};
        for (auto *l : listeners)
            l->onIterEnd(ev);
        break;
      }
      case LoopEventKind::ExecEnd: {
        ExecEndEvent ev{e.pos, e.execId, e.loop, e.aux, e.reason};
        for (auto *l : listeners)
            l->onExecEnd(ev);
        break;
      }
      case LoopEventKind::SingleIter: {
        SingleIterExecEvent ev{e.pos, e.loop, e.aux, e.depth};
        for (auto *l : listeners)
            l->onSingleIterExec(ev);
        break;
      }
      default:
        panic("bad LoopEventKind");
    }
}

void
replayLoopEvents(const LoopEventRecording &recording,
                 const std::vector<LoopListener *> &listeners,
                 uint64_t window)
{
    const uint64_t end = std::min(window, recording.totalInstrs);

    // The CLS as the events leave it, as (ExecStart, current iteration)
    // pairs; slot i holds the execution at depth i + 1.
    std::vector<std::pair<LoopEventRec, uint32_t>> open;

    // ExecStart events pair 1:1, in order, with recording.execs — that
    // record supplies the fields the compact event stream omits.
    size_t next_exec = 0;
    for (const LoopEventRec &e : recording.loopEvents) {
        if (e.pos >= end)
            break; // positions never decrease
        uint32_t branch_addr = 0;
        uint64_t parent_exec_id = 0;
        if (e.kind == LoopEventKind::ExecStart) {
            LOOPSPEC_ASSERT(next_exec < recording.execs.size(),
                            "more ExecStart events than ExecRecords");
            const ExecRecord &r = recording.execs[next_exec++];
            branch_addr = r.branchAddr;
            parent_exec_id = r.parentExecId;
            open.emplace_back(e, 0);
        } else if (e.kind == LoopEventKind::IterStart) {
            open.at(e.depth - 1).second = e.aux;
        } else if (e.kind == LoopEventKind::ExecEnd) {
            // Normally the top entry; a middle or bottom one on
            // overlapped exits and overflow.
            size_t i = open.size();
            while (i-- > 0 && open[i].first.execId != e.execId) {
            }
            LOOPSPEC_ASSERT(i < open.size(), "ExecEnd for a closed exec");
            open.erase(open.begin() + static_cast<long>(i));
        }
        dispatchLoopEvent(e, branch_addr, parent_exec_id, listeners);
    }

    // The detector's trace-end flush at the window, innermost first.
    for (size_t i = open.size(); i-- > 0;) {
        const LoopEventRec &x = open[i].first;
        const uint32_t iter = open[i].second;
        const uint32_t depth = static_cast<uint32_t>(i + 1);
        for (auto *l : listeners)
            l->onIterEnd({end, x.execId, x.loop, iter, depth});
        for (auto *l : listeners)
            l->onExecEnd(
                {end, x.execId, x.loop, iter, ExecEndReason::TraceEnd});
    }
    for (auto *l : listeners)
        l->onTraceDone(end);
}

namespace
{

/**
 * Puts a counting model on a windowed replay: before each event at
 * position p the model is credited every instruction up to
 * min(p + 1, window) — the instruction triggering the event included,
 * as a detector retires it before dispatching it — and before
 * onTraceDone the rest up to the window. The close-out events sit at
 * the window itself, so they credit nothing beyond it.
 */
class PositionCredit : public LoopListener
{
  public:
    PositionCredit(InstrCountingListener &counting_model, uint64_t end)
        : model(counting_model), window(end)
    {
    }

    void
    onExecStart(const ExecStartEvent &ev) override
    {
        creditThrough(ev.pos);
        model.onExecStart(ev);
    }

    void
    onIterStart(const IterEvent &ev) override
    {
        creditThrough(ev.pos);
        model.onIterStart(ev);
    }

    void
    onIterEnd(const IterEvent &ev) override
    {
        creditThrough(ev.pos);
        model.onIterEnd(ev);
    }

    void
    onExecEnd(const ExecEndEvent &ev) override
    {
        creditThrough(ev.pos);
        model.onExecEnd(ev);
    }

    void
    onSingleIterExec(const SingleIterExecEvent &ev) override
    {
        creditThrough(ev.pos);
        model.onSingleIterExec(ev);
    }

    void
    onTraceDone(uint64_t total_instrs) override
    {
        creditUpTo(total_instrs);
        model.onTraceDone(total_instrs);
    }

  private:
    void
    creditThrough(uint64_t pos)
    {
        creditUpTo(std::min(pos + 1, window));
    }

    void
    creditUpTo(uint64_t upto)
    {
        if (upto <= credited)
            return;
        model.countInstrs(upto - credited);
        credited = upto;
    }

    InstrCountingListener &model;
    const uint64_t window;
    uint64_t credited = 0;
};

} // namespace

void
replayCounted(const LoopEventRecording &recording,
              InstrCountingListener &model, uint64_t window)
{
    const uint64_t end = std::min(window, recording.totalInstrs);
    PositionCredit credit(model, end);
    replayLoopEvents(recording, {&credit}, end);
}

namespace
{

// "LSREC02v". The format stores both the loopEvents stream and the
// SimEvents/boundaries derived from it: redundant on disk, but load()
// stays a straight deserialisation and recordings are ready to use
// without re-running the onTraceDone derivation.
constexpr uint64_t recordingMagic = 0x4c53524543303276ull;

template <typename T>
void
writePod(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readPod(std::istream &is)
{
    T value{};
    is.read(reinterpret_cast<char *>(&value), sizeof(T));
    if (!is)
        fatal("recording stream truncated");
    return value;
}

} // namespace

void
LoopEventRecording::save(std::ostream &os) const
{
    writePod(os, recordingMagic);
    writePod(os, totalInstrs);
    writePod(os, static_cast<uint64_t>(execs.size()));
    for (const auto &x : execs) {
        writePod(os, x.execId);
        writePod(os, x.loop);
        writePod(os, x.branchAddr);
        writePod(os, x.depth);
        writePod(os, x.parentExecId);
        writePod(os, x.endBoundary);
        writePod(os, x.iterCount);
        writePod(os, static_cast<uint8_t>(x.endReason));
        writePod(os, static_cast<uint64_t>(x.iterBoundaries.size()));
        for (uint64_t b : x.iterBoundaries)
            writePod(os, b);
        writePod(os, static_cast<uint64_t>(x.iterDataOk.size()));
        for (bool f : x.iterDataOk)
            writePod(os, static_cast<uint8_t>(f));
    }
    writePod(os, static_cast<uint64_t>(events.size()));
    for (const auto &e : events) {
        writePod(os, e.boundary);
        writePod(os, e.execIdx);
        writePod(os, e.iterIndex);
        writePod(os, static_cast<uint8_t>(e.kind));
    }
    writePod(os, static_cast<uint64_t>(loopEvents.size()));
    for (const auto &e : loopEvents) {
        writePod(os, e.pos);
        writePod(os, e.execId);
        writePod(os, e.loop);
        writePod(os, e.aux);
        writePod(os, e.depth);
        writePod(os, static_cast<uint8_t>(e.kind));
        writePod(os, static_cast<uint8_t>(e.reason));
    }
}

LoopEventRecording
LoopEventRecording::load(std::istream &is)
{
    if (readPod<uint64_t>(is) != recordingMagic)
        fatal("not a loopspec recording (bad magic)");
    LoopEventRecording rec;
    rec.totalInstrs = readPod<uint64_t>(is);
    uint64_t num_execs = readPod<uint64_t>(is);
    rec.execs.resize(num_execs);
    for (auto &x : rec.execs) {
        x.execId = readPod<uint64_t>(is);
        x.loop = readPod<uint32_t>(is);
        x.branchAddr = readPod<uint32_t>(is);
        x.depth = readPod<uint32_t>(is);
        x.parentExecId = readPod<uint64_t>(is);
        x.endBoundary = readPod<uint64_t>(is);
        x.iterCount = readPod<uint32_t>(is);
        x.endReason = static_cast<ExecEndReason>(readPod<uint8_t>(is));
        uint64_t nb = readPod<uint64_t>(is);
        x.iterBoundaries.resize(nb);
        for (auto &b : x.iterBoundaries)
            b = readPod<uint64_t>(is);
        uint64_t nf = readPod<uint64_t>(is);
        x.iterDataOk.resize(nf);
        for (uint64_t i = 0; i < nf; ++i)
            x.iterDataOk[i] = readPod<uint8_t>(is) != 0;
    }
    uint64_t num_events = readPod<uint64_t>(is);
    rec.events.resize(num_events);
    for (auto &e : rec.events) {
        e.boundary = readPod<uint64_t>(is);
        e.execIdx = readPod<uint32_t>(is);
        e.iterIndex = readPod<uint32_t>(is);
        e.kind = static_cast<SimEventKind>(readPod<uint8_t>(is));
    }
    uint64_t num_loop_events = readPod<uint64_t>(is);
    rec.loopEvents.resize(num_loop_events);
    for (auto &e : rec.loopEvents) {
        e.pos = readPod<uint64_t>(is);
        e.execId = readPod<uint64_t>(is);
        e.loop = readPod<uint32_t>(is);
        e.aux = readPod<uint32_t>(is);
        e.depth = readPod<uint32_t>(is);
        e.kind = static_cast<LoopEventKind>(readPod<uint8_t>(is));
        e.reason = static_cast<ExecEndReason>(readPod<uint8_t>(is));
    }
    return rec;
}

} // namespace loopspec
