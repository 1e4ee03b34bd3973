//! Mutation property tests of both design readers: a malformed file is an
//! `Err`, never a panic or an abort.

#![cfg(test)]

use fastgr_grid::CostParams;
use proptest::prelude::*;

use crate::{Design, Generator, ParseDesignError};

/// Bytes a byte edit writes: digits, signs, separators and the letters of
/// `nan`/`inf`, so mutants get past the keywords to the numeric checks.
const BYTES: &[u8] = b"0123456789 -.\n+einfa";

/// Tokens a token edit writes: non-finite, negative, huge, out of range.
const TOKENS: &str = "nan inf -1 9 100000000000 18446744073709551615";

/// Applies `(kind, position, pick)` edits to a long seed: at `position`
/// (modulo the length) kind 0 overwrites the byte, 1 inserts one, 2 deletes
/// it, and 3 replaces the whitespace-delimited token there with a token.
fn mutate(seed: &str, edits: &[(u8, usize, usize)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    let space = |b: &u8| b.is_ascii_whitespace();
    let tokens: Vec<&str> = TOKENS.split(' ').collect();
    for &(kind, pos, pick) in edits {
        let i = pos % bytes.len();
        match kind {
            0 => bytes[i] = BYTES[pick % BYTES.len()],
            1 => bytes.insert(i, BYTES[pick % BYTES.len()]),
            2 => drop(bytes.remove(i)),
            _ => {
                let start = bytes[..i].iter().rposition(space).map_or(0, |s| s + 1);
                let end = bytes[i..]
                    .iter()
                    .position(space)
                    .map_or(bytes.len(), |e| i + e);
                bytes.splice(start..end, tokens[pick % tokens.len()].bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Builds the grid of a parsed mutant no larger than `seed`, which must not
/// panic either (larger grids are skipped only to bound memory).
fn build_if_small(parsed: Result<Design, ParseDesignError>, seed: &Design) {
    if let Ok(d) = parsed {
        if d.width() <= seed.width() && d.height() <= seed.height() && d.layers() <= seed.layers() {
            let _ = d.build_graph(CostParams::default());
        }
    }
}

/// One to three `(kind, position, pick)` edits for [`mutate`].
fn edits() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    proptest::collection::vec((0u8..4, 0usize..1 << 16, 0usize..64), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_text_never_panics(edits in edits()) {
        let seed = Generator::tiny(3).generate();
        build_if_small(Design::from_text(&mutate(&seed.to_text(), &edits)), &seed);
    }

    #[test]
    fn mutated_ispd_never_panics(edits in edits()) {
        let sample = crate::ispd::SAMPLE;
        let seed = Design::from_ispd2008("sample", sample).expect("valid sample");
        build_if_small(Design::from_ispd2008("mutant", &mutate(sample, &edits)), &seed);
    }
}
