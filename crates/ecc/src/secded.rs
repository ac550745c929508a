//! (72,64) SECDED Hamming codec.
//!
//! The code is the classic extended Hamming construction: a Hamming(71,64)
//! code laid out over bit positions `1..=71` of a 72-bit word, with check
//! bits at the power-of-two positions (1, 2, 4, 8, 16, 32, 64) and data
//! bits filling the remaining 64 positions in ascending order, plus an
//! overall even-parity bit at position 0. The extended parity bit is what
//! upgrades single-error-correct to double-error-*detect*: a double flip
//! leaves overall parity even but produces a nonzero syndrome, which is
//! distinguishable from every single-flip case.
//!
//! Decode classification (syndrome `s`, overall parity `p` of all 72 bits):
//!
//! | `s`    | `p`  | verdict                                      |
//! |--------|------|----------------------------------------------|
//! | 0      | even | clean                                        |
//! | ≠0     | odd  | single error at position `s` — corrected     |
//! | 0      | odd  | overall-parity bit flipped — corrected       |
//! | ≠0     | even | double error — uncorrectable                 |
//!
//! Three or more flips are beyond the code's guarantee; they may alias to
//! any verdict (as in real SECDED hardware), so the fault injector only
//! emits one- and two-bit flips per word.

/// Total codeword width in bits (64 data + 7 Hamming check + 1 parity).
pub const CODE_BITS: u32 = 72;

/// Payload width in bits.
pub const DATA_BITS: u32 = 64;

/// Mask selecting the 72 codeword bits of a `u128`.
const CODE_MASK: u128 = (1u128 << CODE_BITS) - 1;

/// Outcome of decoding a (possibly corrupted) 72-bit codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// Zero syndrome and even parity: the stored word is intact.
    Clean {
        /// The 64-bit payload.
        data: u64,
    },
    /// Exactly one bit was flipped; the decoder repaired it (a CE).
    Corrected {
        /// The payload after correction.
        data: u64,
        /// Codeword bit position (0..72) that was flipped and repaired.
        bit: u32,
    },
    /// An even number (≥2) of flips: detected but not repairable (a UE).
    Uncorrectable,
}

/// The six runs of data positions between the check bits, as
/// `(first position, length)`: payload bit 0 lands at position 3, bits 1–3
/// at 5–7, bits 4–10 at 9–15, and so on up to bits 57–63 at 65–71.
const DATA_SPANS: [(u32, u32); 6] = [(3, 1), (5, 3), (9, 7), (17, 15), (33, 31), (65, 7)];

/// `SYNDROME_MASKS[i]` selects the positions in `1..=71` whose index has
/// bit `i` set; the parity of the word under it is syndrome bit `i`.
const SYNDROME_MASKS: [u128; 7] = syndrome_masks();

const fn syndrome_masks() -> [u128; 7] {
    let mut masks = [0u128; 7];
    let mut pos = 1;
    while pos < CODE_BITS {
        let mut i = 0;
        while i < 7 {
            if pos >> i & 1 == 1 {
                masks[i] |= 1 << pos;
            }
            i += 1;
        }
        pos += 1;
    }
    masks
}

/// Encodes a 64-bit payload into a 72-bit SECDED codeword.
pub fn encode(data: u64) -> u128 {
    let mut word = scatter(data);
    // Each Hamming check bit makes the XOR over the positions containing
    // its index bit come out even.
    let syn = syndrome(word);
    for i in 0..7 {
        word |= u128::from(syn >> i & 1) << (1u32 << i);
    }
    debug_assert_eq!(syndrome(word), 0);
    // Overall parity bit makes the full 72-bit popcount even.
    word | u128::from(word.count_ones() & 1)
}

/// XOR of the positions (1..=71) of all set bits — zero for a valid word,
/// and equal to the flipped position after any single flip in 1..=71.
/// Computed as seven masked parities, one per syndrome bit.
fn syndrome(word: u128) -> u32 {
    let mut syn = 0;
    for (i, mask) in SYNDROME_MASKS.iter().enumerate() {
        syn |= ((word & mask).count_ones() & 1) << i;
    }
    syn
}

/// Spreads the 64 payload bits over the data positions, one shift and
/// mask per span.
fn scatter(data: u64) -> u128 {
    let mut word = 0u128;
    let mut src = 0;
    for (pos, len) in DATA_SPANS {
        word |= u128::from(data >> src & ((1 << len) - 1)) << pos;
        src += len;
    }
    word
}

/// Gathers the 64 payload bits back out of a codeword.
fn extract(word: u128) -> u64 {
    let mut data = 0u64;
    let mut dst = 0;
    for (pos, len) in DATA_SPANS {
        data |= ((word >> pos) as u64 & ((1 << len) - 1)) << dst;
        dst += len;
    }
    data
}

/// Decodes a 72-bit codeword, correcting a single flip and detecting a
/// double flip. Bits above position 71 are ignored.
pub fn decode(word: u128) -> Decode {
    let word = word & CODE_MASK;
    let syn = syndrome(word);
    let parity_odd = word.count_ones() % 2 == 1;
    match (syn, parity_odd) {
        (0, false) => Decode::Clean {
            data: extract(word),
        },
        (0, true) => Decode::Corrected {
            data: extract(word),
            bit: 0,
        },
        (s, true) if s < CODE_BITS => Decode::Corrected {
            data: extract(word ^ (1 << s)),
            bit: s,
        },
        // s >= CODE_BITS with odd parity can only arise from ≥3 flips;
        // even parity with nonzero syndrome is the double-flip signature.
        _ => Decode::Uncorrectable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_clean() {
        for data in [0u64, u64::MAX, 0xA5A5_A5A5_5A5A_5A5A, 1, 1 << 63] {
            assert_eq!(decode(encode(data)), Decode::Clean { data });
        }
    }

    #[test]
    fn every_single_flip_is_corrected() {
        let data = 0x0123_4567_89AB_CDEF;
        let word = encode(data);
        for bit in 0..CODE_BITS {
            match decode(word ^ (1 << bit)) {
                Decode::Corrected { data: d, bit: b } => {
                    assert_eq!(d, data, "payload mangled after flip at {bit}");
                    assert_eq!(b, bit, "wrong position identified");
                }
                other => panic!("flip at {bit} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn every_double_flip_is_flagged() {
        let word = encode(0xFEED_FACE_CAFE_BEEF);
        for a in 0..CODE_BITS {
            for b in (a + 1)..CODE_BITS {
                assert_eq!(
                    decode(word ^ (1 << a) ^ (1 << b)),
                    Decode::Uncorrectable,
                    "double flip at ({a},{b}) not flagged"
                );
            }
        }
    }

    #[test]
    fn data_spans_fill_every_non_check_position() {
        let spans: Vec<u32> = DATA_SPANS
            .iter()
            .flat_map(|&(pos, len)| pos..pos + len)
            .collect();
        let non_check: Vec<u32> = (1..CODE_BITS).filter(|p| !p.is_power_of_two()).collect();
        assert_eq!(spans, non_check);
        assert_eq!(spans.len() as u32, DATA_BITS);
    }

    #[test]
    fn high_bits_are_ignored() {
        let data = 42;
        let word = encode(data) | (1u128 << 100);
        assert_eq!(decode(word), Decode::Clean { data });
    }
}
