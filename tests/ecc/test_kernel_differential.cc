/**
 * @file
 * Differential fuzzing between the table-driven codec kernels and the
 * table-free reference algebra in codec_reference.hh: for every BCH/RS
 * parameter point the repo uses, random data with 0..t+2 injected
 * errors must produce byte-identical codewords, check bits and
 * syndromes, and the decoders must correct every pattern within the
 * design distance and never return a non-codeword. This is the
 * contract that lets the fast kernels run the Monte-Carlo sweeps
 * without perturbing any sampled statistic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "codec_reference.hh"
#include "common/rng.hh"
#include "ecc/bch.hh"
#include "ecc/rs.hh"

namespace nvck {
namespace {

/** Bit positions where @p a and @p b differ, ascending. */
std::vector<std::uint32_t>
diffPositions(const BitVec &a, const BitVec &b)
{
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a.get(i) != b.get(i))
            out.push_back(static_cast<std::uint32_t>(i));
    return out;
}

/** Symbol positions where @p a and @p b differ, ascending. */
std::vector<std::uint32_t>
diffPositions(const std::vector<GfElem> &a, const std::vector<GfElem> &b)
{
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            out.push_back(static_cast<std::uint32_t>(i));
    return out;
}

struct BchPoint
{
    unsigned k;
    unsigned t;
};

class KernelDiffBch : public ::testing::TestWithParam<BchPoint> {};

TEST_P(KernelDiffBch, EncodeSyndromesDecodeIdentical)
{
    const auto [k, t] = GetParam();
    const BchCodec codec(k, t);

    Rng rng(0xD1FF + k * 31 + t);
    for (unsigned errors = 0; errors <= t + 2; ++errors) {
        BitVec data(k);
        data.randomize(rng);

        const BitVec cw = codec.encode(data);
        ASSERT_EQ(cw, ref::bchEncode(codec, data))
            << "k=" << k << " t=" << t;
        EXPECT_EQ(codec.encodeDelta(data), ref::bchCheckBits(codec, data));
        EXPECT_EQ(codec.extractData(cw), data);

        BitVec noisy = cw;
        noisy.injectExactErrors(rng, errors);
        EXPECT_EQ(codec.isCodeword(noisy), ref::bchIsCodeword(codec, noisy))
            << "errors=" << errors;
        EXPECT_EQ(codec.syndromes(noisy), ref::bchSyndromes(codec, noisy))
            << "errors=" << errors;

        // Within the design distance the decoder restores the codeword
        // and reports exactly the injected positions; beyond it, it
        // either refuses (leaving the word untouched) or lands on a
        // codeword at most t flips away.
        BitVec decoded = noisy;
        const auto res = codec.decode(decoded);
        const auto flipped = diffPositions(noisy, decoded);
        EXPECT_EQ(res.positions, flipped) << "errors=" << errors;
        EXPECT_EQ(res.corrections, flipped.size());
        if (errors <= t) {
            EXPECT_EQ(res.status, errors == 0 ? DecodeStatus::Clean
                                              : DecodeStatus::Corrected)
                << "errors=" << errors;
            EXPECT_EQ(decoded, cw) << "errors=" << errors;
        } else if (res.status != DecodeStatus::Uncorrectable) {
            EXPECT_TRUE(ref::bchIsCodeword(codec, decoded))
                << "errors=" << errors;
            EXPECT_LE(res.corrections, t);
        }

        // reencode must agree too (it reuses the residue kernel).
        BitVec reencoded = noisy;
        codec.reencode(reencoded);
        EXPECT_EQ(reencoded,
                  ref::bchEncode(codec, codec.extractData(noisy)));
    }
}

TEST_P(KernelDiffBch, SyndromesMaskOversizedTail)
{
    // Regression for the tail-handling fix: bits at positions >= n()
    // of an over-long received vector must be ignored, not folded into
    // the syndromes (and not truncated a whole word early).
    const auto [k, t] = GetParam();
    const BchCodec codec(k, t);
    Rng rng(0x7A11 + k + t);

    BitVec data(k);
    data.randomize(rng);
    const BitVec cw = codec.encode(data);
    const auto clean = ref::bchSyndromes(codec, cw);

    BitVec oversized(cw.size() + 67);
    oversized.copyRange(0, cw, 0, cw.size());
    for (std::size_t i = cw.size(); i < oversized.size(); ++i)
        oversized.set(i, true); // garbage beyond n()
    EXPECT_EQ(codec.syndromes(oversized), clean);
    EXPECT_EQ(codec.syndromes(cw), clean);
    EXPECT_TRUE(codec.isCodeword(cw));
    EXPECT_TRUE(ref::bchIsCodeword(codec, oversized));
}

INSTANTIATE_TEST_SUITE_P(
    AllCodePoints, KernelDiffBch,
    ::testing::Values(BchPoint{64, 2}, BchPoint{128, 3},
                      BchPoint{512, 5}, BchPoint{512, 8},
                      BchPoint{512, 14}, BchPoint{2048, 22},
                      BchPoint{64, 1}), // r = 7: the bit-serial LFSR
    [](const auto &info) {
        return "k" + std::to_string(info.param.k) + "t" +
               std::to_string(info.param.t);
    });

struct RsPoint
{
    unsigned k;
    unsigned r;
    unsigned m;
};

class KernelDiffRs : public ::testing::TestWithParam<RsPoint> {};

TEST_P(KernelDiffRs, EncodeSyndromesDecodeIdentical)
{
    const auto [k, r, m] = GetParam();
    const RsCodec codec(k, r, m);
    const unsigned t = codec.t();
    const GfElem mask = static_cast<GfElem>(codec.field().size() - 1);
    Rng rng(0xA5A5 + k * 17 + r + m);

    for (unsigned errors = 0; errors <= t + 2; ++errors) {
        std::vector<GfElem> data(k);
        for (auto &s : data)
            s = static_cast<GfElem>(rng.next() & mask);

        const auto cw = codec.encode(data);
        ASSERT_EQ(cw, ref::rsEncode(codec, data)) << "m=" << m;
        EXPECT_EQ(codec.extractData(cw), data);

        auto noisy = cw;
        for (unsigned e = 0; e < errors; ++e) {
            const auto pos = static_cast<std::size_t>(rng.next() %
                                                      noisy.size());
            noisy[pos] ^= static_cast<GfElem>((rng.next() % mask) + 1);
        }
        EXPECT_EQ(codec.isCodeword(noisy), ref::rsIsCodeword(codec, noisy));
        EXPECT_EQ(codec.syndromes(noisy), ref::rsSyndromes(codec, noisy));

        // Repeated positions may merge or cancel injected errors, so
        // the pattern weight is measured, not assumed.
        const std::size_t weight = diffPositions(cw, noisy).size();
        auto decoded = noisy;
        const auto res = codec.decode(decoded);
        const auto fixed = diffPositions(noisy, decoded);
        EXPECT_EQ(res.positions, fixed) << "errors=" << errors;
        EXPECT_EQ(res.corrections, fixed.size());
        EXPECT_EQ(res.errorCorrections, fixed.size());
        if (2 * weight <= r) {
            EXPECT_EQ(res.status, weight == 0 ? DecodeStatus::Clean
                                              : DecodeStatus::Corrected)
                << "errors=" << errors;
            EXPECT_EQ(decoded, cw) << "errors=" << errors;
        } else if (res.status != DecodeStatus::Uncorrectable) {
            EXPECT_TRUE(ref::rsIsCodeword(codec, decoded));
            EXPECT_LE(res.corrections, t);
        }

        auto reencoded = noisy;
        codec.reencode(reencoded);
        EXPECT_EQ(reencoded,
                  ref::rsEncode(codec, codec.extractData(noisy)));
    }
}

TEST_P(KernelDiffRs, ErasureDecodesIdentical)
{
    const auto [k, r, m] = GetParam();
    const RsCodec codec(k, r, m);
    const GfElem mask = static_cast<GfElem>(codec.field().size() - 1);
    Rng rng(0xE8A5 + k + r + m);

    // Mixes with 2*errors + erasures up to r + 2 (including an
    // uncorrectable overload case).
    for (unsigned erasures = 1; erasures <= r; erasures += 3) {
        for (unsigned errors = 0;
             2 * errors + erasures <= r + 2; ++errors) {
            std::vector<GfElem> data(k);
            for (auto &s : data)
                s = static_cast<GfElem>(rng.next() & mask);
            const auto cw = codec.encode(data);
            auto noisy = cw;

            std::vector<std::uint32_t> positions(noisy.size());
            for (std::size_t i = 0; i < positions.size(); ++i)
                positions[i] = static_cast<std::uint32_t>(i);
            for (std::size_t i = positions.size(); i > 1; --i)
                std::swap(positions[i - 1],
                          positions[rng.next() % i]);

            std::vector<std::uint32_t> erased(
                positions.begin(), positions.begin() + erasures);
            for (unsigned e = 0; e < erasures + errors; ++e)
                noisy[positions[e]] ^=
                    static_cast<GfElem>((rng.next() % mask) + 1);

            auto decoded = noisy;
            const auto res = codec.decode(decoded, erased);
            const auto fixed = diffPositions(noisy, decoded);
            EXPECT_EQ(res.positions, fixed)
                << "erasures=" << erasures << " errors=" << errors;
            EXPECT_EQ(res.corrections, fixed.size());
            if (2 * errors + erasures <= r) {
                EXPECT_EQ(res.status, DecodeStatus::Corrected)
                    << "erasures=" << erasures << " errors=" << errors;
                EXPECT_EQ(res.errorCorrections, errors);
                EXPECT_EQ(decoded, cw);
            } else if (res.status != DecodeStatus::Uncorrectable) {
                EXPECT_TRUE(ref::rsIsCodeword(codec, decoded));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodePoints, KernelDiffRs,
    ::testing::Values(
        RsPoint{64, 8, 8},  // the paper's RS(72,64) over GF(2^8)
        RsPoint{64, 8, 12}, // wide field: exercises the log/exp path
        RsPoint{16, 6, 8}), // odd r: erasure/error mixes with r odd
    [](const auto &info) {
        return "k" + std::to_string(info.param.k) + "r" +
               std::to_string(info.param.r) + "m" +
               std::to_string(info.param.m);
    });

} // namespace
} // namespace nvck
