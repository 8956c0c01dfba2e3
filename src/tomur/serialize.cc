/**
 * @file
 * Text serialization of trained Tomur models. Offline training is
 * the expensive step (testbed co-runs); persisted models let online
 * components (placement, diagnosis) start instantly.
 *
 * Format (version 2): a header line
 *
 *     tomur_model <version> <body-bytes> <fnv1a64-checksum-hex>
 *
 * followed by exactly <body-bytes> bytes of body. The length +
 * checksum let load() reject truncated or bit-flipped files with a
 * descriptive error before parsing anything. The body is one field
 * walk per sub-model (common/serial.hh): save(), load() and
 * contentDigest() run the same walks, every section is validated
 * against named bounds, and a parse failure names the section so a
 * corrupt model file is diagnosable. Loading never mutates the
 * destination model until the whole file has been validated.
 */

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "common/serial.hh"
#include "common/strutil.hh"
#include "tomur/predictor.hh"

namespace tomur::core {

namespace {

/** Serialization format version save() writes and load() accepts. */
constexpr int kFormatVersion = 2;

/** Upper bound on seed-averaged ensemble sizes (memory and solo
 *  model sections). Real ensembles hold 3 models (§7.1); anything
 *  beyond this is a corrupt or hostile count. */
constexpr std::size_t kMaxEnsembleModels = 64;

/** Upper bound on an accelerator model's effective queue count; the
 *  calibration clamps estimates to (0, 64) (accel_model.cc). */
constexpr int kMaxAccelQueues = 64;

/** Upper bound on the serialized body size (16 MiB). A trained
 *  model is a few hundred KiB; a larger declared length means a
 *  corrupt header and must not drive an allocation. */
constexpr std::size_t kMaxBodyBytes = 16u << 20;

/** Execution patterns by name, indexed by ExecutionPattern. */
constexpr const char *kPatternNames[] = {"pl", "rtc"};

} // namespace

std::uint64_t
modelBodyChecksum(std::string_view body)
{
    return fnv1a64(body);
}

template <class Self, class Sink>
void
MemoryModel::walk(Self &self, Sink &s)
{
    s.tag("memory_model");
    std::size_t n = s.count(self.models_, kMaxEnsembleModels);
    s.check(n > 0, "empty ensemble");
    s.flag(self.opts_.trafficAware);
    s.endLine();
    // The width follows the trafficAware flag just read.
    const std::size_t width = self.featureNames().size();
    s.elements(self.models_, n, [&](auto &m) {
        ml::GradientBoostingRegressor::walk(m, s, width);
    });
    s.loaded(self.opts_.seeds, static_cast<int>(n));
    s.loaded(self.fitted_, true);
}

Status
MemoryModel::save(std::ostream &out) const
{
    if (!fitted_) {
        return Status::failedPrecondition(
            "MemoryModel::save before fit");
    }
    std::string text;
    SerialWriter w(text);
    walk(*this, w);
    out << text;
    return Status::ok();
}

template <class Self, class Sink>
void
AccelQueueModel::walk(Self &self, Sink &s)
{
    s.tag("accel_model");
    s.integer(self.queues_);
    s.check(self.queues_ >= 1 && self.queues_ <= kMaxAccelQueues,
            "queue count out of range");
    s.real(self.t0_);
    s.real(self.byteSlope_);
    s.real(self.matchSlope_);
    s.endLine();
    s.loaded(self.calibrated_, true);
}

template <class Self, class Sink>
void
TomurModel::walk(Self &self, Sink &s)
{
    s.tag("nf");
    s.text(self.nfName_);
    s.endLine();
    s.tag("pattern");
    s.keyword(self.pattern_, kPatternNames);
    s.endLine();
    s.tag("health");
    s.flag(self.health_.soloDegraded);
    s.flag(self.health_.memoryDegraded);
    for (auto &degraded : self.health_.accelDegraded)
        s.flag(degraded);
    s.endLine();
    MemoryModel::walk(self.memory_, s);
    s.tag("solo_models");
    std::size_t n = s.count(self.soloModels_, kMaxEnsembleModels);
    s.check(n > 0, "empty ensemble");
    s.endLine();
    // Solo models predict on the traffic attributes alone.
    s.elements(self.soloModels_, n, [&](auto &m) {
        ml::GradientBoostingRegressor::walk(m, s,
                                            traffic::numAttributes);
    });
    for (int k = 0; k < hw::numAccelKinds; ++k) {
        s.tag("accel");
        int index = k;
        s.integer(index);
        s.check(index == k, "accelerator kinds out of order");
        bool present = self.accel_[k].has_value();
        s.flag(present);
        s.endLine();
        if (present)
            AccelQueueModel::walk(s.present(self.accel_[k]), s);
    }
}

std::uint64_t
TomurModel::contentDigest() const
{
    if (digestAt_ != mutations_) {
        SerialDigest d;
        walk(*this, d);
        digest_ = d.value();
        digestAt_ = mutations_;
    }
    return digest_;
}

Status
TomurModel::save(std::ostream &out) const
{
    std::string bytes;
    if (Status st = save(bytes); !st.isOk())
        return st;
    out << bytes;
    if (!out)
        return Status::ioError("TomurModel::save: stream write failed");
    return Status::ok();
}

Status
TomurModel::save(std::string &out) const
{
    // The sub-model preconditions, checked up front so the walk
    // below only formats.
    if (!memory_.fitted()) {
        return Status::failedPrecondition(
                   "MemoryModel::save before fit")
            .withContext("TomurModel::save");
    }
    for (const auto &a : accel_) {
        if (a && !a->calibrated()) {
            return Status::failedPrecondition(
                       "accelerator model saved before calibrate")
                .withContext("TomurModel::save");
        }
    }
    for (const auto &m : soloModels_) {
        if (!m.fitted())
            panic("GradientBoostingRegressor::save before fit");
    }

    // Format the body in place, then put the header that carries its
    // length and checksum in front of it.
    const std::size_t start = out.size();
    SerialWriter w(out);
    walk(*this, w);
    std::string_view body(out.data() + start, out.size() - start);
    out.insert(start, strf("tomur_model %d %zu %llx\n", kFormatVersion,
                           body.size(),
                           static_cast<unsigned long long>(
                               modelBodyChecksum(body))));
    return Status::ok();
}

Status
TomurModel::load(std::istream &in)
{
    // ---- Header: magic, version, body length, checksum ----
    if (!expectToken(in, "tomur_model")) {
        return Status::corruptData(
            "header section: missing 'tomur_model' tag");
    }
    int version = 0;
    in >> version;
    if (!in || version != kFormatVersion) {
        return Status::corruptData(strf(
            "header section: unsupported format version %d "
            "(expected %d)",
            version, kFormatVersion));
    }
    std::size_t body_bytes = 0;
    std::string checksum_hex;
    in >> body_bytes >> checksum_hex;
    if (!in) {
        return Status::corruptData(
            "header section: unreadable length/checksum");
    }
    if (body_bytes == 0 || body_bytes > kMaxBodyBytes) {
        return Status::corruptData(
            strf("header section: body length %zu outside [1, %zu]",
                 body_bytes, kMaxBodyBytes));
    }
    std::uint64_t declared = 0;
    try {
        std::size_t pos = 0;
        declared = std::stoull(checksum_hex, &pos, 16);
        if (pos != checksum_hex.size())
            throw std::invalid_argument(checksum_hex);
    } catch (const std::exception &) {
        return Status::corruptData(
            strf("header section: bad checksum token '%s'",
                 checksum_hex.c_str()));
    }
    in.get(); // the newline ending the header line

    std::string bytes(body_bytes, '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(body_bytes));
    if (in.gcount() != static_cast<std::streamsize>(body_bytes)) {
        return Status::corruptData(
            strf("header section: truncated body (%zd of %zu bytes)",
                 static_cast<std::ptrdiff_t>(in.gcount()),
                 body_bytes));
    }
    std::uint64_t actual = modelBodyChecksum(bytes);
    if (actual != declared) {
        return Status::corruptData(strf(
            "checksum mismatch: body hashes to %llx, header says "
            "%llx (file damaged in transit or storage)",
            static_cast<unsigned long long>(actual),
            static_cast<unsigned long long>(declared)));
    }

    // ---- Body: parse into a temporary, commit only on success ----
    std::istringstream body(std::move(bytes));
    TomurModel m;
    SerialReader r(body);
    walk(m, r);
    if (!r.ok())
        return r.status();
    *this = std::move(m);
    touch();
    return Status::ok();
}

} // namespace tomur::core
