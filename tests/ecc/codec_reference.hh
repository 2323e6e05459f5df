/**
 * @file
 * Table-free reference algebra for the BCH and RS codecs, used by the
 * differential tests as the oracle for the table-driven production
 * kernels. Everything here follows the textbook definition one step at
 * a time — polynomial division for encoding and codeword checks,
 * direct alpha-power sums (BCH) and Horner evaluation (RS) for
 * syndromes — and shares no lookup table with src/ecc.
 */

#ifndef NVCK_TESTS_ECC_CODEC_REFERENCE_HH
#define NVCK_TESTS_ECC_CODEC_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "ecc/bch.hh"
#include "ecc/rs.hh"
#include "gf/binpoly.hh"
#include "gf/gfpoly.hh"

namespace nvck::ref {

/** BCH check bits of @p data: (d(x) * x^r) mod g(x), r bits. */
inline BitVec
bchCheckBits(const BchCodec &codec, const BitVec &data)
{
    BinPoly shifted;
    for (unsigned i = 0; i < codec.k(); ++i)
        if (data.get(i))
            shifted.setBit(codec.r() + i);
    const BinPoly rem = BinPoly::mod(shifted, codec.generator());
    BitVec check(codec.r());
    for (unsigned i = 0; i < codec.r(); ++i)
        check.set(i, rem.bit(i));
    return check;
}

/** Systematic BCH codeword [check | data] of @p data. */
inline BitVec
bchEncode(const BchCodec &codec, const BitVec &data)
{
    const BitVec check = bchCheckBits(codec, data);
    BitVec codeword(codec.n());
    codeword.copyRange(0, check, 0, codec.r());
    codeword.copyRange(codec.r(), data, 0, codec.k());
    return codeword;
}

/** True when the first n() bits of @p word are divisible by g(x). */
inline bool
bchIsCodeword(const BchCodec &codec, const BitVec &word)
{
    BinPoly received;
    for (unsigned i = 0; i < codec.n(); ++i)
        if (word.get(i))
            received.setBit(i);
    return BinPoly::mod(received, codec.generator()).isZero();
}

/**
 * Syndromes S_1 .. S_2t of the first n() bits of @p word, each the
 * direct sum of alpha^(j * i) over the set bit positions i.
 */
inline std::vector<GfElem>
bchSyndromes(const BchCodec &codec, const BitVec &word)
{
    const Gf2m &gf = codec.field();
    std::vector<GfElem> syn(2 * codec.t(), 0);
    for (unsigned j = 1; j <= 2 * codec.t(); ++j) {
        for (unsigned i = 0; i < codec.n(); ++i) {
            if (word.get(i))
                syn[j - 1] ^= gf.alphaPow(
                    (static_cast<std::uint64_t>(j) * i) % gf.order());
        }
    }
    return syn;
}

/** Narrow-sense RS generator prod_{i=1..r} (x - alpha^i). */
inline GfPoly
rsGenerator(const RsCodec &codec)
{
    const Gf2m &gf = codec.field();
    GfPoly gen = GfPoly::constant(1);
    for (unsigned i = 1; i <= codec.r(); ++i)
        gen = GfPoly::mul(gf, gen, GfPoly({gf.alphaPow(i), 1}));
    return gen;
}

/** Systematic RS codeword: d(x) * x^r + (d(x) * x^r mod g(x)). */
inline std::vector<GfElem>
rsEncode(const RsCodec &codec, const std::vector<GfElem> &data)
{
    GfPoly message;
    for (unsigned i = 0; i < codec.k(); ++i)
        message.setCoeff(codec.r() + i, data[i]);
    const GfPoly parity =
        GfPoly::mod(codec.field(), message, rsGenerator(codec));
    std::vector<GfElem> codeword(codec.n(), 0);
    for (unsigned i = 0; i < codec.r(); ++i)
        codeword[i] = parity.coeff(i);
    for (unsigned i = 0; i < codec.k(); ++i)
        codeword[codec.r() + i] = data[i];
    return codeword;
}

/** Syndromes S_j = R(alpha^j), j = 1..r, by Horner evaluation. */
inline std::vector<GfElem>
rsSyndromes(const RsCodec &codec, const std::vector<GfElem> &word)
{
    const Gf2m &gf = codec.field();
    std::vector<GfElem> syn(codec.r(), 0);
    for (unsigned j = 1; j <= codec.r(); ++j) {
        const GfElem point = gf.alphaPow(j);
        GfElem acc = 0;
        for (std::size_t i = word.size(); i-- > 0;)
            acc = Gf2m::add(gf.mul(acc, point), word[i]);
        syn[j - 1] = acc;
    }
    return syn;
}

/** True when every RS syndrome of @p word is zero. */
inline bool
rsIsCodeword(const RsCodec &codec, const std::vector<GfElem> &word)
{
    for (const GfElem s : rsSyndromes(codec, word))
        if (s != 0)
            return false;
    return true;
}

} // namespace nvck::ref

#endif // NVCK_TESTS_ECC_CODEC_REFERENCE_HH
