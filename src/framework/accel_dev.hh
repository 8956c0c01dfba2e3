/**
 * @file
 * Functional accelerator devices.
 *
 * Elements that offload work talk to a device object: the regex
 * device runs the real multi-pattern matcher over the payload (so
 * match results are genuine, as on the BlueField RXP), and the
 * compression device runs a small LZ-style compressor. Each call
 * records the corresponding AccelRequest into the CostContext.
 */

#ifndef TOMUR_FRAMEWORK_ACCEL_DEV_HH
#define TOMUR_FRAMEWORK_ACCEL_DEV_HH

#include <memory>
#include <span>

#include "framework/cost.hh"
#include "regex/matcher.hh"

namespace tomur::framework {

/** Result of a regex scan request. */
struct RegexScanResult
{
    std::uint64_t matchCount = 0;
    std::uint64_t matchedRules = 0; ///< bitmask by rule id
};

/**
 * Regex accelerator device wrapping a compiled ruleset.
 */
class RegexDevice
{
  public:
    explicit RegexDevice(const regex::RuleSet &rules);

    /**
     * Scan a payload; records the request into ctx. Skipped (zero
     * matches, no recorded request) when ctx.accelFunctional() is
     * off — see CostContext::setAccelFunctional().
     */
    RegexScanResult scan(std::span<const std::uint8_t> payload,
                         CostContext &ctx);

    const regex::MultiMatcher &matcher() const { return matcher_; }

  private:
    regex::MultiMatcher matcher_;
};

/** Result of a compression request. */
struct CompressResult
{
    std::size_t compressedSize = 0;
    double ratio = 1.0; ///< compressed / original
};

/**
 * Compression accelerator device: byte-pair LZ-style compressor
 * (functional stand-in for the BlueField deflate engine).
 */
class CompressionDevice
{
  public:
    /** Compress a payload; records the request into ctx. Skipped
     *  when ctx.accelFunctional() is off. */
    CompressResult compress(std::span<const std::uint8_t> payload,
                            CostContext &ctx);

    /** The raw compressor (exposed for tests). */
    static std::vector<std::uint8_t>
    lzCompress(std::span<const std::uint8_t> input);

    /** Inverse of lzCompress (round-trip tested). */
    static std::vector<std::uint8_t>
    lzDecompress(std::span<const std::uint8_t> input);
};

/**
 * Crypto accelerator device: a real ChaCha20 stream cipher (RFC 7539)
 * standing in for the NIC's inline IPsec/TLS engine. Encryption and
 * decryption are the same keystream XOR, so round-trips are testable.
 */
class CryptoDevice
{
  public:
    /** 256-bit key + 96-bit nonce. */
    struct Key
    {
        std::uint32_t words[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        std::uint32_t nonce[3] = {0x1234, 0x5678, 0x9abc};
    };

    /**
     * Encrypt (or decrypt) a payload in place semantics: returns the
     * transformed bytes; records the request into ctx. Skipped when
     * ctx.accelFunctional() is off (input returned unchanged).
     */
    std::vector<std::uint8_t>
    encrypt(std::span<const std::uint8_t> payload, CostContext &ctx,
            const Key &key, std::uint32_t counter);

    /** Encrypt with the default key and counter 1. */
    std::vector<std::uint8_t>
    encrypt(std::span<const std::uint8_t> payload, CostContext &ctx);

    /**
     * Raw ChaCha20 XOR-keystream transform (exposed for tests; RFC
     * 7539 test vectors apply).
     */
    static std::vector<std::uint8_t>
    chacha20(std::span<const std::uint8_t> input, const Key &key,
             std::uint32_t counter);

    /** One 64-byte keystream block (RFC 7539 block function). */
    static void block(const Key &key, std::uint32_t counter,
                      std::uint8_t out[64]);
};

/** Bundle of devices an NF chain may use. */
struct DeviceSet
{
    /** No devices: the caller attaches the ones its chain uses. */
    DeviceSet() = default;
    /** All three devices, the regex one compiled from `rules`. */
    explicit DeviceSet(const regex::RuleSet &rules);

    std::shared_ptr<RegexDevice> regex;
    std::shared_ptr<CompressionDevice> compression;
    std::shared_ptr<CryptoDevice> crypto;
};

} // namespace tomur::framework

#endif // TOMUR_FRAMEWORK_ACCEL_DEV_HH
