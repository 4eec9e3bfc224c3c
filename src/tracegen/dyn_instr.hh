/**
 * @file
 * Dynamic (retired) instruction record streamed by the TraceEngine to its
 * observers. This is the moral equivalent of the per-instruction callback
 * an ATOM-instrumented SPEC95 binary gave the paper's authors.
 */

#ifndef LOOPSPEC_TRACEGEN_DYN_INSTR_HH
#define LOOPSPEC_TRACEGEN_DYN_INSTR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/opcode.hh"

namespace loopspec
{

/**
 * One retired instruction. Control-transfer fields follow the CLS's
 * vocabulary: kind (branch/jump/call/ret), taken, and the resolved target
 * address when taken. Operand values are included for the §4 statistics.
 *
 * Field order is width-descending so the record packs into 72 bytes —
 * the engine's fast path copies one per retired instruction, so padding
 * is bandwidth.
 */
struct DynInstr
{
    uint64_t seq = 0;           //!< retire index, 0-based
    int64_t srcVal[2] = {0, 0}; //!< source register values
    int64_t dstVal = 0;         //!< destination value after writeback
    uint64_t memAddr = 0;       //!< memory operand (loads and stores)
    int64_t memVal = 0;
    uint32_t pc = 0;     //!< instruction byte address
    uint32_t target = 0; //!< resolved target when a taken transfer
    Opcode op = Opcode::Nop;
    CtrlKind kind = CtrlKind::None;
    bool taken = false; //!< for branches; jumps/calls/rets always true

    // Register operand shape (up to two sources, one destination).
    uint8_t numSrc = 0;
    uint8_t srcReg[2] = {0, 0};
    bool hasDst = false;
    uint8_t dstReg = 0;

    // Memory operand kind.
    bool isLoad = false;
    bool isStore = false;

    /** Backward control transfer (the CLS trigger condition). */
    bool
    backward() const
    {
        return taken && target <= pc;
    }
};

// The engine's fast path copies one DynInstr per retired instruction;
// the record was hand-packed to 72 bytes (field order width-descending)
// and any padding regression is pure bandwidth loss. Pin the layout.
static_assert(sizeof(DynInstr) == 72, "DynInstr must stay 72 bytes");
static_assert(sizeof(CtrlKind) == 1 && sizeof(Opcode) == 1,
              "ISA enums must stay single-byte (SoA kind plane stride)");

/**
 * Structure-of-arrays view of one retired-instruction batch.
 *
 * The hot planes carry exactly the fields the loop detector and the
 * control-index consumers read — pc, resolved target, control kind and
 * taken-ness — at one-ninth the bandwidth of a DynInstr stream; seq is
 * implicit (record i retired at seqBase + i). Hot planes are valid at
 * every position and agree field-for-field with the scalar records: target
 * and taken are zero at non-control positions, a not-taken branch keeps
 * its static target, exactly like DynInstr.
 *
 * The cold planes carry the operand/value data only the §4 data-
 * speculation statistics want. Producers fill them only when some
 * consumer asked for full records (TraceObserver::batchNeed); in
 * hot-only deliveries they are null and materialize() must not be
 * called. `templates` points at the producer's per-static-instruction
 * DynInstr prototypes; sidx[i] selects the prototype of record i, so a
 * full record is one prototype copy plus the dynamic-field patches.
 */
struct SoaBatch
{
    // Hot planes: valid at every position.
    const uint32_t *pc = nullptr;
    const uint32_t *target = nullptr; //!< 0 at non-control positions
    const uint8_t *kind = nullptr;    //!< CtrlKind values
    const uint8_t *taken = nullptr;   //!< 0/1
    uint64_t seqBase = 0;             //!< seq of record 0
    size_t count = 0;
    const uint32_t *ctrl = nullptr; //!< positions with kind != None
    size_t numCtrl = 0;

    // Cold planes: null unless the producer filled full records.
    const uint32_t *sidx = nullptr; //!< static-instruction index
    const int64_t *srcVal0 = nullptr;
    const int64_t *srcVal1 = nullptr;
    const int64_t *dstVal = nullptr;
    const uint64_t *memAddr = nullptr;
    const int64_t *memVal = nullptr;
    const DynInstr *templates = nullptr; //!< indexed by sidx[i]

    bool hasColdPlanes() const { return sidx != nullptr; }

    /** Rebuild the full record at position @p i (cold planes
     *  required). Bit-identical to what step() delivers. */
    DynInstr
    materialize(size_t i) const
    {
        DynInstr d = templates[sidx[i]];
        d.seq = seqBase + i;
        d.srcVal[0] = srcVal0[i];
        d.srcVal[1] = srcVal1[i];
        d.dstVal = dstVal[i];
        d.memAddr = memAddr[i];
        d.memVal = memVal[i];
        d.target = target[i];
        d.taken = taken[i] != 0;
        return d;
    }

    /** Per-instruction footprint of the hot planes alone. Pinned so a
     *  plane-type change (a widened kind enum, a bool-ified taken)
     *  shows up as a compile error, not a silent cache-budget change:
     *  a 4K-record batch of hot data must stay ~40KB (~288KB as
     *  DynInstr records). */
    static constexpr size_t kHotBytesPerInstr =
        sizeof(uint32_t) * 2 + sizeof(uint8_t) * 2;
};

static_assert(SoaBatch::kHotBytesPerInstr == 10,
              "SoA hot-plane stride grew; rebudget batch sizing");
static_assert(sizeof(*SoaBatch{}.pc) == 4 &&
                  sizeof(*SoaBatch{}.target) == 4 &&
                  sizeof(*SoaBatch{}.kind) == 1 &&
                  sizeof(*SoaBatch{}.taken) == 1,
              "SoA hot planes must stay 4/4/1/1 bytes per record");
static_assert(sizeof(*SoaBatch{}.srcVal0) == 8 &&
                  sizeof(*SoaBatch{}.memAddr) == 8,
              "SoA cold value planes must stay 8 bytes per record");

/**
 * Owning backing store for a SoaBatch: one producer-side allocation
 * reused across batches. ensure() sizes the hot planes (and the cold
 * planes when @p cold) for @p cap records; view() assembles the
 * non-owning SoaBatch over them.
 */
struct SoaBatchStorage
{
    std::vector<uint32_t> pc, target, ctrl, sidx;
    std::vector<uint8_t> kind, taken;
    std::vector<int64_t> srcVal0, srcVal1, dstVal, memVal;
    std::vector<uint64_t> memAddr;
    bool hasCold = false;

    void
    ensure(size_t cap, bool cold)
    {
        pc.resize(cap);
        target.resize(cap);
        ctrl.resize(cap);
        kind.resize(cap);
        taken.resize(cap);
        hasCold = cold;
        if (cold) {
            sidx.resize(cap);
            srcVal0.resize(cap);
            srcVal1.resize(cap);
            dstVal.resize(cap);
            memVal.resize(cap);
            memAddr.resize(cap);
        }
    }

    /** View over the first @p count records (@p num_ctrl control
     *  positions), templated by @p templates. */
    SoaBatch
    view(size_t count, size_t num_ctrl, uint64_t seq_base,
         const DynInstr *templates) const
    {
        SoaBatch b;
        b.pc = pc.data();
        b.target = target.data();
        b.kind = kind.data();
        b.taken = taken.data();
        b.seqBase = seq_base;
        b.count = count;
        b.ctrl = ctrl.data();
        b.numCtrl = num_ctrl;
        if (hasCold) {
            b.sidx = sidx.data();
            b.srcVal0 = srcVal0.data();
            b.srcVal1 = srcVal1.data();
            b.dstVal = dstVal.data();
            b.memAddr = memAddr.data();
            b.memVal = memVal.data();
            b.templates = templates;
        }
        return b;
    }
};

/**
 * What batch data an observer needs from a producer. Producers take the
 * maximum over their observers: any FullRecords consumer makes the
 * producer fill the cold planes too, so materialize() (and any direct
 * cold-plane reader) stays exact.
 */
enum class BatchNeed : uint8_t
{
    HotPlanes,   //!< pc/target/kind/taken + ctrl index + counts suffice
    FullRecords, //!< needs the operand/value planes
};

/**
 * Observer over a retired-instruction stream. Multiple observers can be
 * attached to one engine; they see each instruction in attach order.
 *
 * There are two deliveries: step() hands over one record at a time
 * (onInstr), run() and control-trace replay hand over SoA batches
 * (onInstrBatchSoA). The default batch implementation materializes each
 * record and forwards it to onInstr, so an observer sees the identical
 * record sequence on either path and only overrides onInstrBatchSoA
 * (and batchNeed) when it wants to read the planes directly.
 */
class TraceObserver
{
  public:
    virtual ~TraceObserver() = default;

    /** Called for every retired instruction. */
    virtual void onInstr(const DynInstr &instr) = 0;

    /**
     * A run of consecutively retired instructions, in retire order, as
     * planes; batch boundaries carry no meaning. The default calls
     * onInstr(batch.materialize(i)) per record, which needs the cold
     * planes. Observers on the hot path override this *and* batchNeed():
     * when every observer reports HotPlanes the producer skips the cold
     * planes entirely, and the default must never run (it asserts).
     */
    virtual void onInstrBatchSoA(const SoaBatch &batch);

    /** Data this observer needs from batch deliveries. The conservative
     *  default keeps the per-record default above exact. */
    virtual BatchNeed batchNeed() const { return BatchNeed::FullRecords; }

    /** Called once when the trace ends (Halt or fuel exhausted). */
    virtual void onTraceEnd(uint64_t total_instrs) { (void)total_instrs; }
};

} // namespace loopspec

#endif // LOOPSPEC_TRACEGEN_DYN_INSTR_HH
