/**
 * @file
 * Crash-safe generational checkpoint store: one append-only log.
 *
 * `<dir>/checkpoint.log` holds frames of the shared frame codec
 * (common/serial.hh), each a checksummed `tomur_ckpt 3 <bytes>
 * <fnv1a64-hex>` header line and its payload: `blob <digest>\n<bytes>`
 * (content-addressed state; the autopilot's is a model body) or
 * `generation <n> <digest>...\n<body>`. writeBlob() stages
 * a frame; writeGeneration() appends the staged frames it references
 * and its own in one write, covered by one fdatasync. Opening scans
 * the log into an index (generation -> offset and references, digest
 * -> offset); a frame that fails its check is passed by a resync to
 * the next magic, so it never hides a later good one, and a torn tail
 * is truncated before the next append. Restore re-verifies frames by
 * offset, newest generation first, falling back past corrupt ones.
 * The newest N generations and their blobs are live; once the bytes
 * appended since the last compaction reach the live bytes (and a
 * 1 MiB floor), the live frames are rewritten via tmp-write, fsync,
 * rename and a directory fsync. A directory in the file-per-record
 * layout of older builds (`ckpt-*.tomur`), or a log whose frames are
 * all of another version, is refused. Injected crash
 * points throw SimulatedCrash; the log then holds what a kill would
 * leave, and the store rescans it as a restart would.
 */

#ifndef TOMUR_COMMON_CHECKPOINT_HH
#define TOMUR_COMMON_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/serial.hh"
#include "common/status.hh"

namespace tomur {

/** A log frame: `tomur_ckpt 3 <bytes> <fnv1a64-hex>`, then a payload
 *  of at most 64 MiB. */
inline constexpr FrameFormat kCheckpointFrame{"tomur_ckpt", 3, 64u << 20,
                                              "checkpoint"};

/** Where in writeGeneration an injected crash fires. */
enum class CheckpointCrashPoint
{
    None,
    BeforeAppend,     ///< nothing appended
    TornAppend,       ///< half of the append written
    BeforeGeneration, ///< blob frames appended, generation frame not
    BeforeCompaction, ///< generation durable, compaction not run
};

/** Thrown by injected crash points (and the fault testbed's
 *  crash-after-batches hook) to simulate an abrupt kill. */
class SimulatedCrash : public std::runtime_error
{
  public:
    explicit SimulatedCrash(const std::string &where)
        : std::runtime_error("simulated crash at " + where)
    {
    }
};

struct CheckpointOptions
{
    /** Newest generations kept live after each write. */
    std::size_t generations = 3;
    /** Sync every append and compaction (tests may disable). */
    bool fsync = true;
    /** Injected crash point for chaos tests. */
    CheckpointCrashPoint crashPoint = CheckpointCrashPoint::None;
};

/** A restored checkpoint: which generation, its body bytes, and the
 *  verified bytes of every blob it references, keyed by digest. */
struct CheckpointRecord
{
    std::uint64_t generation = 0;
    std::string body;
    std::map<std::uint64_t, std::string> blobs;
};

class CheckpointStore
{
  public:
    explicit CheckpointStore(std::string dir,
                             CheckpointOptions opts = {});

    /** Durably append `body` as the next generation, referencing
     *  `blobs` (staged or in the log), then retire old generations and
     *  compact when due. IoError on filesystem failure; SimulatedCrash
     *  when a crash point is armed. */
    Status writeGeneration(const std::string &body,
                           const std::vector<std::uint64_t> &blobs = {});

    /** True when blob `digest` is staged or live in the log. */
    bool
    hasBlob(std::uint64_t digest) const
    {
        return blobs_.count(digest) > 0 || staged_.count(digest) > 0;
    }

    /** Stage `bytes` as blob `digest` unless hasBlob(digest); the
     *  next writeGeneration referencing it makes it durable. */
    Status writeBlob(std::uint64_t digest, const std::string &bytes);

    /** Restore the newest generation whose frame and blobs verify,
     *  skipping corrupt ones (warnEvent + metric). NotFound for an
     *  empty log; CorruptData when nothing in it verifies. */
    Result<CheckpointRecord> loadLatestValid() const;

    /** Live generation numbers, ascending. */
    std::vector<std::uint64_t> listGenerations() const;

    /** Digests of the live blobs in the log, ascending. */
    std::vector<std::uint64_t> listBlobs() const;

    /** Generation number the next writeGeneration() will use. */
    std::uint64_t nextGeneration() const { return nextGen_; }

    /** Arm/disarm the injected crash point. */
    void setCrashPoint(CheckpointCrashPoint p) { opts_.crashPoint = p; }

    /** Path of the log (exposed for tests that hand-corrupt it). */
    std::string logPath() const { return dir_ + "/checkpoint.log"; }

  private:
    struct Frame
    {
        std::uint64_t offset = 0, size = 0;
        std::vector<std::uint64_t> refs; ///< a generation's blobs
    };

    /** Rebuild the index from the log, as opening a store does. */
    void scan();
    /** Drop generations past the retention limit, then blobs before
     *  `pendingFrom` that no live generation references. */
    void retire(std::uint64_t pendingFrom);
    /** Write `bytes` after the last valid frame. */
    Status append(std::string_view bytes);
    /** Write `bytes` at `offset` of `path` (cut there first when
     *  `cut`) and fdatasync it when syncing is on. */
    Status writeAt(const std::string &path, std::string_view bytes,
                   std::uint64_t offset, bool cut) const;
    Status syncDir() const;
    Status compact();
    Status readGeneration(std::uint64_t gen, const Frame &f,
                          CheckpointRecord *rec) const;
    void crash(CheckpointCrashPoint p);

    std::string dir_;
    CheckpointOptions opts_;
    Status refused_; ///< another layout, or a log of another version
    std::uint64_t nextGen_ = 1;
    std::map<std::uint64_t, Frame> gens_, blobs_;
    /** Framed blobs awaiting a generation that references them. */
    std::map<std::uint64_t, std::string> staged_;
    /** end_: where the next append goes (after the last valid frame);
     *  fileBytes_: the file's size, above end_ after a torn append;
     *  appended_: bytes appended since the last compaction. */
    std::uint64_t end_ = 0, fileBytes_ = 0, appended_ = 0;
    /** Complete frames the last scan could not verify. */
    std::size_t corruptFrames_ = 0;
};

} // namespace tomur

#endif // TOMUR_COMMON_CHECKPOINT_HH
