//! Seeded property tests for the SECDED codec (in-repo PRNG, no external
//! property-testing crate — the build must stay hermetic).

use smartrefresh_dram::rng::Rng;
use smartrefresh_ecc::{decode, encode, Decode, CODE_BITS};

const WORDS: usize = 64;

#[test]
fn secded_corrects_every_single_flip_on_random_words() {
    let mut rng = Rng::seed_from_u64(0x5ec_ded1);
    for _ in 0..WORDS {
        let data = rng.next_u64();
        let word = encode(data);
        for bit in 0..CODE_BITS {
            match decode(word ^ (1 << bit)) {
                Decode::Corrected { data: d, bit: b } => {
                    assert_eq!(d, data, "payload mangled: word {data:#x}, flip {bit}");
                    assert_eq!(b, bit, "wrong bit identified: word {data:#x}, flip {bit}");
                }
                other => panic!("word {data:#x} flip {bit} decoded as {other:?}"),
            }
        }
    }
}

#[test]
fn secded_flags_every_double_flip_on_random_words() {
    let mut rng = Rng::seed_from_u64(0x5ec_ded2);
    for _ in 0..WORDS {
        let data = rng.next_u64();
        let word = encode(data);
        // Exhausting all C(72,2) pairs for every word is slow in debug
        // builds; sample pairs uniformly instead, plus the boundary pairs.
        let mut pairs: Vec<(u32, u32)> = vec![(0, 1), (0, 71), (70, 71)];
        for _ in 0..256 {
            let a = rng.gen_range(0u32..CODE_BITS);
            let b = rng.gen_range(0u32..CODE_BITS - 1);
            let b = if b >= a { b + 1 } else { b };
            pairs.push((a, b));
        }
        for (a, b) in pairs {
            assert_eq!(
                decode(word ^ (1 << a) ^ (1 << b)),
                Decode::Uncorrectable,
                "word {data:#x}: double flip ({a},{b}) not flagged"
            );
        }
    }
}

#[test]
fn secded_roundtrips_random_words() {
    let mut rng = Rng::seed_from_u64(0x5ec_ded3);
    for _ in 0..4096 {
        let data = rng.next_u64();
        assert_eq!(decode(encode(data)), Decode::Clean { data });
    }
}

/// The bit-serial codec the word-parallel one replaced, kept as the oracle:
/// one loop iteration per codeword position, straight from the extended
/// Hamming definition.
mod reference {
    use smartrefresh_ecc::{Decode, CODE_BITS};

    fn is_check_position(pos: u32) -> bool {
        pos.is_power_of_two()
    }

    pub fn encode(data: u64) -> u128 {
        let mut word: u128 = 0;
        let mut src = 0;
        for pos in 1..CODE_BITS {
            if is_check_position(pos) {
                continue;
            }
            if data >> src & 1 == 1 {
                word |= 1 << pos;
            }
            src += 1;
        }
        let syn = syndrome(word);
        for i in 0..7 {
            if syn >> i & 1 == 1 {
                word |= 1 << (1u32 << i);
            }
        }
        if word.count_ones() % 2 == 1 {
            word |= 1;
        }
        word
    }

    fn syndrome(word: u128) -> u32 {
        let mut syn = 0;
        for pos in 1..CODE_BITS {
            if word >> pos & 1 == 1 {
                syn ^= pos;
            }
        }
        syn
    }

    fn extract(word: u128) -> u64 {
        let mut data = 0u64;
        let mut dst = 0;
        for pos in 1..CODE_BITS {
            if is_check_position(pos) {
                continue;
            }
            if word >> pos & 1 == 1 {
                data |= 1 << dst;
            }
            dst += 1;
        }
        data
    }

    pub fn decode(word: u128) -> Decode {
        let word = word & ((1u128 << CODE_BITS) - 1);
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
            _ => Decode::Uncorrectable,
        }
    }
}

/// Checks the codec against the oracle on one `(payload, mask)` pair.
fn assert_matches_reference(data: u64, mask: u128) {
    let word = encode(data);
    assert_eq!(word, reference::encode(data), "encode({data:#x})");
    assert_eq!(
        decode(word ^ mask),
        reference::decode(word ^ mask),
        "decode of {data:#x} with flip mask {mask:#x}"
    );
}

#[test]
fn secded_matches_reference_on_every_single_and_double_flip() {
    let mut rng = Rng::seed_from_u64(0x5ec_ded4);
    let mut payloads = vec![0, u64::MAX, 0xA5A5_A5A5_5A5A_5A5A, 1, 1 << 63];
    payloads.extend((0..4).map(|_| rng.next_u64()));
    for data in payloads {
        assert_matches_reference(data, 0);
        for a in 0..CODE_BITS {
            assert_matches_reference(data, 1 << a);
            for b in (a + 1)..CODE_BITS {
                assert_matches_reference(data, (1 << a) | (1 << b));
            }
        }
    }
}

#[test]
fn secded_matches_reference_on_random_flip_masks() {
    let mut rng = Rng::seed_from_u64(0x5ec_ded5);
    let (mut heavy, mut high) = (0, 0);
    for _ in 0..120_000 {
        let data = rng.next_u64();
        // Mostly sparse masks (the decoder's interesting region), some
        // dense ones, all reaching into the ignored bits above 71.
        let flips = match rng.gen_range(0u32..4) {
            0 => rng.gen_range(0u32..128),
            _ => rng.gen_range(0u32..6),
        };
        let mut mask = 0u128;
        for _ in 0..flips {
            mask |= 1 << rng.gen_range(0u32..128);
        }
        if (mask & ((1 << CODE_BITS) - 1)).count_ones() >= 3 {
            heavy += 1;
        }
        if mask >> CODE_BITS != 0 {
            high += 1;
        }
        assert_matches_reference(data, mask);
    }
    assert!(
        heavy > 30_000,
        "only {heavy} masks with three or more flips"
    );
    assert!(high > 30_000, "only {high} masks reaching above bit 71");
}
