#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ecc/bch.hh"
#include "ecc/code_params.hh"

namespace nvck {
namespace {

/** (data bits, t) parameter pairs covering the paper's code points. */
struct BchPoint
{
    unsigned k;
    unsigned t;
};

class BchParam : public ::testing::TestWithParam<BchPoint> {};

TEST_P(BchParam, EncodeProducesValidCodeword)
{
    const auto [k, t] = GetParam();
    const BchCodec codec(k, t);
    Rng rng(1234 + k + t);
    BitVec data(k);
    data.randomize(rng);
    const BitVec cw = codec.encode(data);
    EXPECT_TRUE(codec.isCodeword(cw));
    EXPECT_EQ(codec.extractData(cw), data);
}

TEST_P(BchParam, CorrectsUpToTErrors)
{
    const auto [k, t] = GetParam();
    const BchCodec codec(k, t);
    Rng rng(99 + k * 7 + t);
    for (unsigned errors = 0; errors <= t; ++errors) {
        BitVec data(k);
        data.randomize(rng);
        const BitVec clean = codec.encode(data);
        BitVec noisy = clean;
        noisy.injectExactErrors(rng, errors);
        const auto res = codec.decode(noisy);
        ASSERT_NE(res.status, DecodeStatus::Uncorrectable)
            << "k=" << k << " t=" << t << " errors=" << errors;
        EXPECT_EQ(noisy, clean);
        EXPECT_EQ(res.corrections, errors);
        if (errors == 0) {
            EXPECT_EQ(res.status, DecodeStatus::Clean);
        }
    }
}

TEST_P(BchParam, DetectsTPlusOneErrorsMostly)
{
    // t+1 errors must never be "corrected" back to the true codeword
    // silently claiming success with t+1 flips; either the decoder
    // reports Uncorrectable or it miscorrects to a *different* codeword.
    const auto [k, t] = GetParam();
    const BchCodec codec(k, t);
    Rng rng(555 + k + t);
    BitVec data(k);
    data.randomize(rng);
    const BitVec clean = codec.encode(data);
    int outcomes = 0;
    for (int trial = 0; trial < 5; ++trial) {
        BitVec noisy = clean;
        noisy.injectExactErrors(rng, t + 1);
        const auto res = codec.decode(noisy);
        if (res.status == DecodeStatus::Uncorrectable) {
            ++outcomes;
        } else {
            // If it claims success, the result must be a codeword but
            // cannot equal the original (it corrected <= t positions of
            // a word at distance t+1).
            EXPECT_TRUE(codec.isCodeword(noisy));
            EXPECT_FALSE(noisy == clean);
        }
    }
    EXPECT_GT(outcomes, 0); // overwhelmingly detected in practice
}

INSTANTIATE_TEST_SUITE_P(
    PaperCodePoints, BchParam,
    ::testing::Values(BchPoint{512, 5},    // Naeimi et al. STT-RAM
                      BchPoint{512, 8},    // Awasthi et al. PCM
                      BchPoint{512, 14},   // bit-error-only baseline
                      BchPoint{2048, 22},  // the proposal's VLEW
                      BchPoint{128, 3},    // small sanity point
                      BchPoint{64, 2}));

TEST(Bch, VlewGeometryMatchesPaper)
{
    // 22-EC over 256B data: the paper charges 33B of code bits
    // (t * (ceil(log2 k) + 1) = 22 * 12 = 264 bits).
    EXPECT_EQ(bchCheckBitsPaper(22, 2048), 264u);
    const BchCodec vlew(2048, 22);
    // The constructed code must fit the paper's budget.
    EXPECT_LE(vlew.r(), 264u);
    EXPECT_EQ(vlew.field().m(), 12u);
}

TEST(Bch, BaselineGeometryMatchesPaper)
{
    // 14-EC over 64B block: 14 * 10 = 140 bits => 28% lower bound.
    EXPECT_EQ(bchCheckBitsPaper(14, 512), 140u);
    const BchCodec base(512, 14);
    EXPECT_LE(base.r(), 140u);
}

TEST(Bch, EncodeDeltaIsLinear)
{
    const BchCodec codec(512, 8);
    Rng rng(777);
    BitVec old_data(512), new_data(512);
    old_data.randomize(rng);
    new_data.randomize(rng);

    BitVec delta = old_data;
    delta ^= new_data;

    BitVec check_old = codec.encodeDelta(old_data);
    const BitVec check_new = codec.encodeDelta(new_data);
    const BitVec check_delta = codec.encodeDelta(delta);

    check_old ^= check_new;
    EXPECT_EQ(check_old, check_delta)
        << "f(x) xor f(x') must equal f(x xor x')";
}

TEST(Bch, DeltaUpdateMatchesReencode)
{
    // The NVRAM-chip EUR applies f(x xor x') to the stored check bits;
    // the result must equal a from-scratch encode of the new data.
    const BchCodec codec(2048, 22);
    Rng rng(4242);
    BitVec old_data(2048), new_data(2048);
    old_data.randomize(rng);
    new_data.randomize(rng);

    BitVec cw = codec.encode(old_data);
    BitVec delta = old_data;
    delta ^= new_data;
    const BitVec check_update = codec.encodeDelta(delta);
    for (unsigned i = 0; i < codec.r(); ++i)
        if (check_update.get(i))
            cw.flip(i);
    for (unsigned i = 0; i < codec.k(); ++i)
        cw.set(codec.r() + i, new_data.get(i));

    EXPECT_TRUE(codec.isCodeword(cw));
    EXPECT_EQ(codec.extractData(cw), new_data);
}

TEST(Bch, ReencodeRepairsCheckBits)
{
    const BchCodec codec(512, 5);
    Rng rng(31);
    BitVec data(512);
    data.randomize(rng);
    BitVec cw = codec.encode(data);
    cw.flip(0);
    cw.flip(3); // corrupt check bits only
    EXPECT_FALSE(codec.isCodeword(cw));
    codec.reencode(cw);
    EXPECT_TRUE(codec.isCodeword(cw));
    EXPECT_EQ(codec.extractData(cw), data);
}

TEST(Bch, CorrectsErrorsInCheckBitsToo)
{
    const BchCodec codec(512, 8);
    Rng rng(67);
    BitVec data(512);
    data.randomize(rng);
    const BitVec clean = codec.encode(data);
    BitVec noisy = clean;
    // Flip bits specifically inside the check region.
    noisy.flip(1);
    noisy.flip(codec.r() - 1);
    noisy.flip(codec.r() + 5); // and one data bit
    const auto res = codec.decode(noisy);
    EXPECT_EQ(res.status, DecodeStatus::Corrected);
    EXPECT_EQ(res.corrections, 3u);
    EXPECT_EQ(noisy, clean);
}

TEST(Bch, AllZeroAndAllOneDataRoundTrip)
{
    const BchCodec codec(512, 14);
    BitVec zeros(512);
    BitVec ones(512);
    for (unsigned i = 0; i < 512; ++i)
        ones.set(i, true);
    for (const BitVec &data : {zeros, ones}) {
        BitVec cw = codec.encode(data);
        Rng rng(3);
        cw.injectExactErrors(rng, 14);
        const auto res = codec.decode(cw);
        EXPECT_EQ(res.status, DecodeStatus::Corrected);
        EXPECT_EQ(codec.extractData(cw), data);
    }
}

TEST(Bch, RandomizedStress)
{
    const BchCodec codec(256, 6);
    Rng rng(2025);
    for (int trial = 0; trial < 200; ++trial) {
        BitVec data(256);
        data.randomize(rng);
        const BitVec clean = codec.encode(data);
        BitVec noisy = clean;
        const unsigned errors =
            static_cast<unsigned>(rng.below(codec.t() + 1));
        noisy.injectExactErrors(rng, errors);
        const auto res = codec.decode(noisy);
        ASSERT_NE(res.status, DecodeStatus::Uncorrectable);
        ASSERT_EQ(noisy, clean) << "trial " << trial;
        ASSERT_EQ(res.corrections, errors);
    }
}

TEST(BchCodecDeathTest, SyndromesRejectWordShorterThanN)
{
    // The byte fold reads all n bits; a short word must be refused up
    // front instead of being read past its storage.
    const BchCodec codec(2048, 22);
    const BitVec short_word(64);
    EXPECT_DEATH(codec.syndromes(short_word), "shorter than n");
}

} // namespace
} // namespace nvck
