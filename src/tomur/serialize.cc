/**
 * @file
 * Text serialization of trained Tomur models. Offline training is
 * the expensive step (testbed co-runs); persisted models let online
 * components (placement, diagnosis) start instantly.
 *
 * Format: a model file is one frame of kModelFrame (common/serial.hh)
 *
 *     tomur_model 2 <body-bytes> <fnv1a64-checksum-hex>
 *
 * followed by exactly <body-bytes> bytes of body. The length +
 * checksum let load() reject truncated or bit-flipped files with a
 * descriptive error before parsing anything. The body is one field
 * walk per sub-model (common/serial.hh): save(), load() and
 * contentDigest() run the same walks, every section is validated
 * against named bounds, and a parse failure names the section so a
 * corrupt model file is diagnosable. Loading never mutates the
 * destination model until the whole file has been validated. An
 * autopilot checkpoint frames the body alone (saveBody/loadBody).
 */

#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "common/serial.hh"
#include "common/strutil.hh"
#include "tomur/predictor.hh"

namespace tomur::core {

namespace {

/** Upper bound on seed-averaged ensemble sizes (memory and solo
 *  model sections). Real ensembles hold 3 models (§7.1); anything
 *  beyond this is a corrupt or hostile count. */
constexpr std::size_t kMaxEnsembleModels = 64;

/** Upper bound on an accelerator model's effective queue count; the
 *  calibration clamps estimates to (0, 64) (accel_model.cc). */
constexpr int kMaxAccelQueues = 64;

/** Execution patterns by name, indexed by ExecutionPattern. */
constexpr const char *kPatternNames[] = {"pl", "rtc"};

} // namespace

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
    std::string body, file;
    if (Status st = saveBody(body); !st.isOk())
        return st;
    appendFrame(file, kModelFrame, body);
    out << file;
    if (!out)
        return Status::ioError("TomurModel::save: stream write failed");
    return Status::ok();
}

Status
TomurModel::saveBody(std::string &out) const
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
    SerialWriter w(out);
    walk(*this, w);
    return Status::ok();
}

Status
TomurModel::load(std::istream &in)
{
    // A frame is at most its header and the body bound long, so a
    // huge input is read no further than that.
    const std::size_t cap = kMaxFrameHeaderBytes + kModelFrame.maxBytes;
    std::string bytes;
    char chunk[1 << 16];
    while (bytes.size() < cap && in.read(chunk, sizeof chunk).gcount() > 0)
        bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
    FrameView frame;
    if (Status st = readFrame(bytes, kModelFrame, &frame); !st.isOk())
        return st.withContext("header section");
    return loadBody(frame.payload);
}

Status
TomurModel::loadBody(std::string_view bytes)
{
    // Parse into a temporary, commit only on success.
    std::istringstream body{std::string(bytes)};
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
