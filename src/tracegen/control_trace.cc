#include "tracegen/control_trace.hh"

#include <istream>
#include <ostream>

#include "util/logging.hh"

namespace loopspec
{

namespace
{

constexpr uint64_t controlTraceMagic = 0x4c53435452303176ull; // "LSCTR01v"

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
        fatal("control trace stream truncated");
    return value;
}

} // namespace

void
ControlTrace::save(std::ostream &os) const
{
    writePod(os, controlTraceMagic);
    writePod(os, totalInstrs);
    writePod(os, static_cast<uint64_t>(transfers.size()));
    for (const auto &t : transfers) {
        writePod(os, t.seq);
        writePod(os, t.pc);
        writePod(os, t.target);
        writePod(os, static_cast<uint8_t>(t.kind));
        writePod(os, static_cast<uint8_t>(t.taken));
    }
}

ControlTrace
ControlTrace::load(std::istream &is)
{
    if (readPod<uint64_t>(is) != controlTraceMagic)
        fatal("not a loopspec control trace (bad magic)");
    ControlTrace trace;
    trace.totalInstrs = readPod<uint64_t>(is);
    uint64_t n = readPod<uint64_t>(is);
    trace.transfers.resize(n);
    for (auto &t : trace.transfers) {
        t.seq = readPod<uint64_t>(is);
        t.pc = readPod<uint32_t>(is);
        t.target = readPod<uint32_t>(is);
        t.kind = static_cast<CtrlKind>(readPod<uint8_t>(is));
        t.taken = readPod<uint8_t>(is) != 0;
    }
    return trace;
}

void
ControlTraceRecorder::onInstr(const DynInstr &d)
{
    if (d.kind == CtrlKind::None)
        return;
    trace.transfers.push_back({d.seq, d.pc, d.target, d.kind, d.taken});
}

void
ControlTraceRecorder::onInstrBatchSoA(const SoaBatch &b)
{
    for (size_t k = 0; k < b.numCtrl; ++k) {
        uint32_t i = b.ctrl[k];
        trace.transfers.push_back({b.seqBase + i, b.pc[i], b.target[i],
                                   static_cast<CtrlKind>(b.kind[i]),
                                   b.taken[i] != 0});
    }
}

void
ControlTraceRecorder::onTraceEnd(uint64_t total_instrs)
{
    LOOPSPEC_ASSERT(!done, "onTraceEnd twice");
    done = true;
    trace.totalInstrs = total_instrs;
}

ControlTrace
ControlTraceRecorder::take()
{
    LOOPSPEC_ASSERT(done, "take() before onTraceEnd");
    done = false;
    ControlTrace out = std::move(trace);
    trace = ControlTrace{};
    return out;
}

ControlReplaySynthesizer::ControlReplaySynthesizer(
    TraceObserver &observer, uint64_t total_instrs, uint64_t max_instrs,
    size_t batch_instrs)
    : observer(observer), cap(batch_instrs), end(total_instrs)
{
    LOOPSPEC_ASSERT(batch_instrs >= 1, "batch_instrs must be >= 1");
    if (max_instrs && max_instrs < end)
        end = max_instrs;
    LOOPSPEC_ASSERT(observer.batchNeed() == BatchNeed::HotPlanes,
                    "control-trace replay carries no operand values; "
                    "its observer must report BatchNeed::HotPlanes");
    // Zero-filled planes are exactly the gap defaults; per batch only
    // the control positions are patched, and restored after delivery.
    pcP.resize(cap);
    targetP.resize(cap);
    kindP.resize(cap);
    takenP.resize(cap);
    ctrl.reserve(cap);
}

void
ControlReplaySynthesizer::flush()
{
    SoaBatch b;
    b.pc = pcP.data();
    b.target = targetP.data();
    b.kind = kindP.data();
    b.taken = takenP.data();
    b.seqBase = batchSeqBase;
    b.count = fill;
    b.ctrl = ctrl.data();
    b.numCtrl = ctrl.size();
    observer.onInstrBatchSoA(b);
    for (uint32_t i : ctrl) {
        pcP[i] = 0;
        targetP[i] = 0;
        kindP[i] = 0;
        takenP[i] = 0;
    }
    ctrl.clear();
    batchSeqBase += fill;
    fill = 0;
}

void
ControlReplaySynthesizer::synthGap(uint64_t upto)
{
    // Gap records are all-zero plane entries with implicit seq:
    // advancing the fill position *is* synthesizing them.
    while (seq < upto) {
        uint64_t room = static_cast<uint64_t>(cap - fill);
        uint64_t take = upto - seq < room ? upto - seq : room;
        fill += static_cast<size_t>(take);
        seq += take;
        if (fill == cap)
            flush();
    }
}

bool
ControlReplaySynthesizer::feed(const CtrlTransfer &t)
{
    LOOPSPEC_ASSERT(!finished, "feed() after finish()");
    // A transfer the materialized replay would never match (out of
    // recorded order) blocks every later one there too — mirror that.
    if (stalled || t.seq >= end) {
        stalled = true;
        return false;
    }
    if (t.seq < seq) {
        stalled = true;
        return false;
    }
    synthGap(t.seq); // synthesize the gap before this transfer
    pcP[fill] = t.pc;
    targetP[fill] = t.target;
    kindP[fill] = static_cast<uint8_t>(t.kind);
    takenP[fill] = t.taken ? 1 : 0;
    ctrl.push_back(static_cast<uint32_t>(fill));
    ++fill;
    ++seq;
    if (fill == cap)
        flush();
    return true;
}

uint64_t
ControlReplaySynthesizer::finish()
{
    LOOPSPEC_ASSERT(!finished, "finish() twice");
    finished = true;
    synthGap(end); // trailing gap after the last transfer
    if (fill)
        flush();
    observer.onTraceEnd(end);
    return end;
}

uint64_t
replayControlTrace(const ControlTrace &trace, TraceObserver &observer,
                   uint64_t max_instrs, size_t batch_instrs)
{
    ControlReplaySynthesizer synth(observer, trace.totalInstrs,
                                   max_instrs, batch_instrs);
    for (const CtrlTransfer &t : trace.transfers)
        if (!synth.feed(t))
            break;
    return synth.finish();
}

} // namespace loopspec
