/**
 * @file
 * Out-of-core trace replay: stream a container file through the replay
 * paths in fixed-size chunks, never materialising the transfer vector
 * or event stream in memory. This is what makes the 10^5-static-loop /
 * multi-billion-instruction synthetic traces replayable within a small
 * fixed memory budget (docs/TRACE_FORMAT.md).
 *
 * Bit-identity with the in-memory paths comes for free: the chunked
 * cursors feed the very same incremental decoders (trace_codec.hh) into
 * the very same ControlReplaySynthesizer / listener dispatch that
 * replayControlTrace and replayLoopEvents use, so batch boundaries and
 * every synthesized instruction are identical by construction.
 *
 * Integrity: section CRCs are accumulated incrementally as chunks are
 * read and checked before the final onTraceEnd/onTraceDone is
 * delivered. On any error the replay returns a diagnostic and the
 * observer's partial state must be discarded — a corrupted file can
 * never complete a replay.
 */

#ifndef LOOPSPEC_TRACE_IO_STREAM_READER_HH
#define LOOPSPEC_TRACE_IO_STREAM_READER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace_io/container.hh"

namespace loopspec
{

class TraceObserver;
class LoopListener;

/** Smallest per-section read granularity open() will run with: chunks
 *  below this are raised to it (a record split across a chunk boundary
 *  must fit one carry). A configured chunkBytes of 0 is rejected by
 *  open() outright rather than silently adjusted. */
constexpr size_t kMinStreamChunkBytes = 64;

/** Knobs for the streaming reader. */
struct StreamConfig
{
    size_t chunkBytes = 256 * 1024; //!< per-section read granularity
                                    //!< (>= 1; values below
                                    //!< kMinStreamChunkBytes are raised
                                    //!< to it by open())
    size_t batchInstrs = 4096;      //!< replay batch (keep the default
                                    //!< to match in-memory replay)
};

/**
 * Bounded-buffer reader over one container file. open() reads and
 * validates only the header and section table; payload bytes are
 * pulled chunk-at-a-time during replay.
 */
class TraceFileStreamer
{
  public:
    /** Open + validate header/table; nullptr with *err on failure. */
    static std::unique_ptr<TraceFileStreamer>
    open(const std::string &path, const StreamConfig &config,
         std::string *err);

    ~TraceFileStreamer();
    TraceFileStreamer(const TraceFileStreamer &) = delete;
    TraceFileStreamer &operator=(const TraceFileStreamer &) = delete;

    TraceContent content() const { return layout.content; }
    const ContainerLayout &sections() const { return layout; }

    /** Trace length from the meta section (either content kind). */
    uint64_t totalInstrs() const { return metaTotalInstrs; }

    /** Container size on disk (for buffer-vs-file budget assertions). */
    uint64_t fileBytes() const { return fileSize; }

    /**
     * Stream a ControlTrace container into @p observer, synthesizing
     * gap instructions exactly like replayControlTrace. @p max_instrs
     * truncates the window (0 = full). Returns "" on success; on error
     * the observer saw a partial, unusable replay. Each replay streams
     * the file afresh, so one streamer can run several prefix replays.
     *
     * Implemented as openControlPump() pumped to completion, so the
     * incremental path below is bit-identical by construction.
     */
    std::string replayControl(TraceObserver &observer,
                              uint64_t max_instrs = 0);

    /**
     * Incremental control replay for interleaved multi-recording
     * schedules: each pump() decodes/synthesizes roughly a chunk more
     * instructions. The final pump() also validates the section CRC and
     * item count before delivering onTraceEnd — a corrupted file can
     * never complete a replay, exactly like replayControl().
     */
    class ControlPump
    {
      public:
        ~ControlPump();

        /** Advance ~@p chunk_instrs; false when complete or failed
         *  (then error() distinguishes — "" means clean completion).
         *  Must not be called again after returning false. */
        bool pump(uint64_t chunk_instrs);

        const std::string &error() const { return err; }

      private:
        friend class TraceFileStreamer;
        ControlPump() = default;

        struct Impl;
        std::unique_ptr<Impl> impl;
        std::string err;
        bool finished = false;
    };

    /** Open an incremental control replay over this container; nullptr
     *  with *err when it is not a control trace. The streamer and
     *  @p observer must outlive the pump. */
    std::unique_ptr<ControlPump> openControlPump(TraceObserver &observer,
                                                 uint64_t max_instrs,
                                                 std::string *err);

    /**
     * Stream a LoopEventRecording container into @p listeners exactly
     * like replayLoopEvents, pulling the exec sidecar in lockstep with
     * the ExecStart events. Same error contract as replayControl.
     */
    std::string replayEvents(const std::vector<LoopListener *> &listeners);

    /** High-water mark of buffered payload bytes across all replays —
     *  the out-of-core guarantee a test can assert against. */
    size_t peakBufferBytes() const { return peakBytes; }

  private:
    TraceFileStreamer() = default;

    class Cursor;

    /** Stream-verify the payload CRC of @p desc without decoding. */
    std::string verifySectionCrc(const SectionDesc &desc);
    void notePeak(size_t bytes);

    std::string path;
    int fd = -1;
    uint64_t fileSize = 0;
    ContainerLayout layout;
    uint64_t metaTotalInstrs = 0;
    uint64_t metaCounts[2] = {0, 0}; //!< transfers | execs, loopEvents
    StreamConfig config;
    size_t peakBytes = 0;
};

} // namespace loopspec

#endif // LOOPSPEC_TRACE_IO_STREAM_READER_HH
