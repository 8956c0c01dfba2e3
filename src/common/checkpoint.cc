#include "common/checkpoint.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ranges>

#include "common/logging.hh"
#include "common/serial.hh"
#include "common/strutil.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"

namespace fs = std::filesystem;

namespace tomur {

namespace {

/** Upper bound on one generation's blob references. */
constexpr std::size_t kMaxBlobRefs = 64;
/** Dead bytes the log may carry before a compaction is due. */
constexpr std::uint64_t kCompactFloorBytes = 1 << 20;

std::string
digestHex(std::uint64_t d)
{
    return strf("%016llx", static_cast<unsigned long long>(d));
}

/** A payload: a blob (key = its digest) or a generation (key = its
 *  number, refs = its blobs), and the bytes after its record line. */
struct Record
{
    bool blob = false;
    std::uint64_t key = 0;
    std::vector<std::uint64_t> refs;
    std::string_view bytes;
};

bool
parseRecord(std::string_view payload, Record *r)
{
    std::size_t nl = payload.find('\n');
    auto f = split(std::string(payload.substr(0, nl)), ' ');
    r->blob = f[0] == "blob";
    if (nl == payload.npos || f.size() < 2 ||
        f.size() > (r->blob ? 2 : 2 + kMaxBlobRefs) ||
        !(r->blob || f[0] == "generation") ||
        !(r->blob ? parseHexDigest(f[1], &r->key)
                  : parseWhole(f[1], &r->key)) ||
        (!r->blob && r->key == 0))
        return false;
    r->refs.resize(f.size() - 2);
    for (std::size_t i = 2; i < f.size(); ++i)
        if (!parseHexDigest(f[i], &r->refs[i - 2]))
            return false;
    r->bytes = payload.substr(nl + 1);
    return true;
}

/** Up to `size` bytes of `path` from `offset`; fewer at its end. */
std::string
readAt(const std::string &path, std::uint64_t offset, std::size_t size)
{
    std::string bytes(size, '\0');
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(bytes.data(), static_cast<std::streamsize>(size));
    bytes.resize(static_cast<std::size_t>(in.gcount()));
    return bytes;
}

/** `what` and errno's text, as an IoError. */
Status
ioError(const std::string &what)
{
    return Status::ioError(what + ": " + std::strerror(errno));
}

/** fdatasync `fd` (counted) when `on`. */
Status
syncFd(int fd, const std::string &what, bool on)
{
    if (on)
        metrics().counter("tomur_checkpoint_syncs_total").inc();
    return !on || ::fdatasync(fd) == 0
               ? Status::ok()
               : ioError("fdatasync failed for " + what);
}

} // namespace

CheckpointStore::CheckpointStore(std::string dir,
                                 CheckpointOptions opts)
    : dir_(std::move(dir)), opts_(opts)
{
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        std::string name = entry.path().filename().string();
        if ((name.starts_with("ckpt-") || name.starts_with("blob-")) &&
            name.ends_with(".tomur"))
            refused_ = Status::failedPrecondition(strf(
                "checkpoint directory %s holds %s, a file-per-record "
                "checkpoint of an older build (this build keeps one "
                "log); resume from an empty checkpoint directory",
                dir_.c_str(), name.c_str()));
    }
    if (refused_.isOk())
        scan();
}

void
CheckpointStore::scan()
{
    gens_.clear();
    blobs_.clear();
    staged_.clear();
    corruptFrames_ = end_ = appended_ = 0;
    std::error_code ec;
    const std::uintmax_t bytes = fs::file_size(logPath(), ec);
    const std::string log = readAt(logPath(), 0, ec ? 0 : bytes);
    fileBytes_ = log.size();
    int otherVersion = 0;
    for (std::size_t pos = 0; pos < log.size();) {
        FrameView f;
        Record r;
        if (readFrame(std::string_view(log).substr(pos), kCheckpointFrame,
                      &f)
                .isOk() &&
            parseRecord(f.payload, &r)) {
            // A later frame of a number wins: it was written after a
            // crash dropped the earlier one from the index.
            (r.blob ? blobs_ : gens_)[r.key] = {pos, f.size, r.refs};
            end_ = pos += f.size;
            continue;
        }
        if (f.version != kCheckpointFrame.version)
            otherVersion = std::max(otherVersion, f.version);
        // Resync to the next magic, so a bad frame never hides a later
        // good one. A frame cut off by the log's end is a torn append.
        std::size_t next = log.find(kCheckpointFrame.magic, pos + 1);
        corruptFrames_ += next != log.npos || !f.torn;
        pos = next == log.npos ? log.size() : next;
    }
    // A log with no frame of this version but frames of another is
    // another build's log, not a corrupt one.
    if (gens_.empty() && blobs_.empty() && otherVersion != 0)
        refused_ = Status::failedPrecondition(strf(
            "checkpoint log %s holds version %d frames of another build "
            "(this build reads version %d, whose model blobs hold the "
            "model body alone); resume from an empty checkpoint "
            "directory",
            logPath().c_str(), otherVersion, kCheckpointFrame.version));
    nextGen_ = gens_.empty() ? 1 : gens_.rbegin()->first + 1;
    // Blobs after the newest generation await the one that never
    // landed: a resumed run references them.
    const Frame *newest = gens_.empty() ? nullptr : &gens_.rbegin()->second;
    retire(newest ? newest->offset + newest->size : 0);
}

void
CheckpointStore::retire(std::uint64_t pendingFrom)
{
    while (opts_.generations > 0 && gens_.size() > opts_.generations)
        gens_.erase(gens_.begin());
    std::erase_if(blobs_, [&](const auto &blob) {
        return blob.second.offset < pendingFrom &&
               std::none_of(gens_.begin(), gens_.end(), [&](auto &g) {
                   return std::count(g.second.refs.begin(),
                                     g.second.refs.end(), blob.first);
               });
    });
}

Status
CheckpointStore::syncDir() const
{
    int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return ioError("cannot open " + dir_);
    Status st = syncFd(fd, dir_, opts_.fsync);
    ::close(fd);
    return st;
}

Status
CheckpointStore::writeAt(const std::string &path, std::string_view bytes,
                         std::uint64_t offset, bool cut) const
{
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0)
        return ioError("cannot open " + path);
    const auto at = static_cast<off_t>(offset);
    bool ok = (!cut || ::ftruncate(fd, at) == 0) &&
              ::pwrite(fd, bytes.data(), bytes.size(), at) ==
                  static_cast<ssize_t>(bytes.size());
    Status st = ok ? syncFd(fd, path, opts_.fsync)
                   : ioError("cannot write " + path);
    ::close(fd);
    return st;
}

Status
CheckpointStore::append(std::string_view bytes)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    const bool created = !fs::exists(logPath(), ec);
    // Cut a torn tail, so the append follows the last valid frame.
    const bool cut = fileBytes_ != end_;
    fileBytes_ = end_ + bytes.size(); // a failed write rescans
    Status st = writeAt(logPath(), bytes, end_, cut);
    if (st.isOk() && created)
        st = syncDir();
    if (st.isOk()) {
        end_ += bytes.size();
        appended_ += bytes.size();
    }
    return st;
}

void
CheckpointStore::crash(CheckpointCrashPoint p)
{
    if (opts_.crashPoint != p)
        return;
    // A killed process keeps nothing in memory: what survives is the
    // log, as a restarted process scans it.
    scan();
    throw SimulatedCrash(
        strf("checkpoint crash point %d", static_cast<int>(p)));
}

Status
CheckpointStore::writeGeneration(const std::string &body,
                                 const std::vector<std::uint64_t> &blobs)
{
    TraceSpan span("checkpoint.write");
    if (!refused_.isOk())
        return refused_;
    const std::uint64_t gen = nextGen_;
    span.field("generation", static_cast<double>(gen));

    // One append: the staged frames this generation references, then
    // its own, indexed ahead (a failed append rescans the log).
    // Staged blobs it does not reference would retire at once.
    std::string kind = "generation " + std::to_string(gen);
    std::string bytes;
    for (std::uint64_t d : blobs) {
        kind += ' ' + digestHex(d);
        if (auto it = staged_.find(d); it != staged_.end()) {
            blobs_[d] = {end_ + bytes.size(), it->second.size(), {}};
            bytes += it->second;
            staged_.erase(it);
        }
    }
    staged_.clear();
    const std::size_t blobBytes = bytes.size();
    appendFrame(bytes, kCheckpointFrame, kind + '\n', body);
    gens_[gen] = {end_ + blobBytes, bytes.size() - blobBytes, blobs};

    crash(CheckpointCrashPoint::BeforeAppend);
    if (auto p = opts_.crashPoint; p == CheckpointCrashPoint::TornAppend ||
                                   p == CheckpointCrashPoint::BeforeGeneration) {
        // What a kill mid-write leaves: a prefix of the append.
        bool torn = p == CheckpointCrashPoint::TornAppend;
        (void)append(std::string_view(bytes).substr(
            0, torn ? bytes.size() / 2 : blobBytes));
        crash(p);
    }
    if (Status st = append(bytes); !st.isOk()) {
        scan();
        return st;
    }
    nextGen_ = gen + 1;
    metrics().counter("tomur_checkpoint_writes_total").inc();

    crash(CheckpointCrashPoint::BeforeCompaction);
    retire(~std::uint64_t{0});
    std::uint64_t live = 0;
    for (const auto *index : {&gens_, &blobs_})
        for (const auto &[key, f] : *index)
            live += f.size;
    return appended_ >= std::max(live, kCompactFloorBytes)
               ? compact()
               : Status::ok();
}

Status
CheckpointStore::compact()
{
    TraceSpan span("checkpoint.compact");
    // The live frames in log order: each blob still precedes the
    // generations that reference it.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
    for (const auto *index : {&gens_, &blobs_})
        for (const auto &[key, f] : *index)
            live.emplace_back(f.offset, f.size);
    std::sort(live.begin(), live.end());
    const std::string log = readAt(logPath(), 0, end_);
    std::string fresh;
    for (const auto &[offset, size] : live)
        fresh.append(log, offset, size);
    const std::string tmp = logPath() + ".tmp";
    Status st = writeAt(tmp, fresh, 0, true);
    if (st.isOk() && ::rename(tmp.c_str(), logPath().c_str()) != 0)
        st = ioError("rename " + tmp);
    if (!st.isOk())
        return st.withContext("checkpoint compaction");
    span.field("bytes", static_cast<double>(fresh.size()));
    metrics().counter("tomur_checkpoint_compactions_total").inc();
    scan(); // the index of the compacted log
    return syncDir();
}

Status
CheckpointStore::writeBlob(std::uint64_t digest,
                           const std::string &bytes)
{
    if (!refused_.isOk() || hasBlob(digest))
        return refused_;
    TraceSpan span("checkpoint.blob_write");
    span.field("bytes", static_cast<double>(bytes.size()));
    appendFrame(staged_[digest], kCheckpointFrame,
                "blob " + digestHex(digest) + "\n", bytes);
    metrics().counter("tomur_checkpoint_blob_writes_total").inc();
    return Status::ok();
}

std::vector<std::uint64_t>
CheckpointStore::listGenerations() const
{
    auto keys = std::views::keys(gens_);
    return {keys.begin(), keys.end()};
}

std::vector<std::uint64_t>
CheckpointStore::listBlobs() const
{
    auto keys = std::views::keys(blobs_);
    return {keys.begin(), keys.end()};
}

Status
CheckpointStore::readGeneration(std::uint64_t gen, const Frame &f,
                                CheckpointRecord *rec) const
{
    // Frames are read back and verified again: the log may have
    // changed under the index.
    auto read = [&](const Frame &at, std::uint64_t key, bool blob,
                    std::string *bytes) {
        const std::string framed = readAt(logPath(), at.offset, at.size);
        FrameView f;
        Record r;
        Status st = readFrame(framed, kCheckpointFrame, &f);
        if (st.isOk() && (f.size != framed.size() ||
                          !parseRecord(f.payload, &r) || r.blob != blob ||
                          r.key != key))
            st = Status::corruptData("frame does not match the index");
        if (st.isOk())
            bytes->assign(r.bytes);
        return st;
    };
    rec->generation = gen;
    if (Status st = read(f, gen, false, &rec->body); !st.isOk())
        return st;
    for (std::uint64_t d : f.refs) {
        auto blob = blobs_.find(d);
        Status st = blob == blobs_.end()
                        ? Status::notFound("not in the log")
                        : read(blob->second, d, true, &rec->blobs[d]);
        if (!st.isOk())
            return Status::corruptData("blob " + digestHex(d) + ": " +
                                       st.message());
    }
    return Status::ok();
}

Result<CheckpointRecord>
CheckpointStore::loadLatestValid() const
{
    TraceSpan span("checkpoint.restore");
    if (!refused_.isOk())
        return refused_;
    if (gens_.empty() && corruptFrames_ == 0)
        return Status::notFound("no checkpoint generations in " + dir_);
    std::string newestError = "none";
    for (auto it = gens_.rbegin(); it != gens_.rend(); ++it) {
        CheckpointRecord rec;
        Status ok = readGeneration(it->first, it->second, &rec);
        const std::string gen = std::to_string(it->first);
        if (ok.isOk()) {
            const auto skipped = std::distance(gens_.rbegin(), it);
            span.field("generation", static_cast<double>(it->first));
            span.field("skipped", static_cast<double>(skipped));
            metrics().counter("tomur_checkpoint_restores_total").inc();
            if (skipped > 0)
                warnEvent("checkpoint", "stale-generation-restore",
                          {{"dir", dir_},
                           {"generation", gen},
                           {"skipped", std::to_string(skipped)}});
            return rec;
        }
        if (it == gens_.rbegin())
            newestError = ok.message();
        metrics().counter("tomur_checkpoint_corrupt_skipped_total").inc();
        warnEvent("checkpoint", "corrupt-generation-skipped",
                  {{"log", logPath()},
                   {"generation", gen},
                   {"error", ok.message()}});
    }
    return Status::corruptData(strf(
        "all %zu checkpoint generations in %s failed verification "
        "(newest: %s; %zu corrupt frames)",
        gens_.size(), dir_.c_str(), newestError.c_str(), corruptFrames_));
}

} // namespace tomur
