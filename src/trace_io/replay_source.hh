/**
 * @file
 * Interleaved multi-recording replay. A ReplaySource is an incremental
 * pump over one recorded trace: each pump() advances that replay by
 * roughly a chunk of instructions, delivering batches/events to the
 * source's own observer or listener set. interleaveReplay() round-robins
 * fixed-size chunks across N independent sources, so N replays of the
 * same (or co-resident) recordings advance in lockstep — the recording's
 * bytes are pulled through the cache once per chunk and reused by every
 * source instead of once per full sequential pass.
 *
 * Each source observes exactly the stream its sequential counterpart
 * would deliver (same synthesized records, same batch boundaries — the
 * pumps drive the very same ControlReplaySynthesizer / dispatchLoopEvent
 * machinery), so interleaving is a pure scheduling change: per-source
 * artifacts are bit-identical to sequential replay.
 */

#ifndef LOOPSPEC_TRACE_IO_REPLAY_SOURCE_HH
#define LOOPSPEC_TRACE_IO_REPLAY_SOURCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "speculation/event_record.hh"
#include "tracegen/control_trace.hh"
#include "trace_io/stream_reader.hh"

namespace loopspec
{

/**
 * One replayable trace being advanced in chunks. pump() returns true
 * while the source has more to deliver; once it returns false the
 * replay is complete (final onTraceEnd/onTraceDone delivered) or failed
 * (error() non-empty) and pump() must not be called again.
 */
class ReplaySource
{
  public:
    virtual ~ReplaySource() = default;

    /** Advance roughly @p chunk_instrs instructions. */
    virtual bool pump(uint64_t chunk_instrs) = 0;

    /** "" unless the replay failed (streamed sources only). */
    virtual const std::string &error() const = 0;
};

/**
 * Pump over an in-memory ControlTrace, feeding a TraceObserver through
 * a private ControlReplaySynthesizer — the chunked equivalent of
 * replayControlTrace() with identical batches.
 */
class ControlTraceSource : public ReplaySource
{
  public:
    /** @p trace must outlive the source. Window/batch parameters as in
     *  replayControlTrace(). */
    ControlTraceSource(const ControlTrace &trace, TraceObserver &observer,
                      uint64_t max_instrs = 0, size_t batch_instrs = 4096);

    bool pump(uint64_t chunk_instrs) override;
    const std::string &error() const override { return err; }

    /** Instructions replayed; valid once pump() has returned false. */
    uint64_t replayed() const { return total; }

  private:
    const ControlTrace &trace;
    ControlReplaySynthesizer synth;
    size_t next = 0; //!< next transfer to feed
    uint64_t total = 0;
    bool done = false;
    std::string err; //!< always "" (in-memory replay cannot fail)
};

/**
 * Pump over an in-memory LoopEventRecording, dispatching loop events to
 * a listener set in recorded order — the chunked equivalent of
 * replayLoopEvents() with identical callbacks.
 */
class EventRecordingSource : public ReplaySource
{
  public:
    /** @p recording and @p listeners must outlive the source. */
    EventRecordingSource(const LoopEventRecording &recording,
                         std::vector<LoopListener *> listeners);

    bool pump(uint64_t chunk_instrs) override;
    const std::string &error() const override { return err; }

  private:
    const LoopEventRecording &rec;
    std::vector<LoopListener *> listeners;
    size_t next = 0;      //!< next loop event to dispatch
    size_t nextExec = 0;  //!< next ExecRecord (ExecStart sidecar)
    uint64_t pos = 0;
    bool done = false;
    std::string err; //!< always "" (in-memory replay cannot fail)
};

/**
 * Pump over an out-of-core control-trace container, wrapping
 * TraceFileStreamer::openControlPump(). Owns nothing: streamer and
 * observer must outlive the source.
 */
class StreamedControlSource : public ReplaySource
{
  public:
    StreamedControlSource(TraceFileStreamer &streamer,
                          TraceObserver &observer,
                          uint64_t max_instrs = 0);

    bool pump(uint64_t chunk_instrs) override;
    const std::string &error() const override { return err; }

  private:
    std::unique_ptr<TraceFileStreamer::ControlPump> pumpImpl;
    bool done = false;
    std::string err;
};

/**
 * Round-robin @p chunk_instrs-sized chunks across @p sources until all
 * are exhausted. Returns "" when every source completed, else the first
 * source error encountered (remaining sources are still drained, so
 * every source ends in a terminal state). Chunks are approximate: a
 * source may overshoot by one batch/gap.
 */
std::string interleaveReplay(const std::vector<ReplaySource *> &sources,
                             uint64_t chunk_instrs = 1 << 16);

} // namespace loopspec

#endif // LOOPSPEC_TRACE_IO_REPLAY_SOURCE_HH
