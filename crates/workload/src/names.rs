//! Nickname generation for synthetic clients.
//!
//! The paper's crawler discovers users through nickname substring queries
//! (`aaa` … `zzz`), and notes that *"not all users are retrieved in this
//! manner, due to the fact that many users share the same names"*. The
//! generator therefore produces pronounceable, **collision-prone**
//! nicknames: a small syllable alphabet plus a popularity-skewed pool of
//! common names, so the crawler simulation faces the same retrieval
//! biases the real one did.

use rand::Rng;

const ONSETS: &[&str] = &[
    "b", "c", "d", "f", "g", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "st",
    "dr",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ou", "ai"];
const SUFFIXES: &[&str] = &["", "", "", "x", "man", "girl", "123", "2000", "01", "99"];

/// A fixed pool of "very common" nicknames a sizeable fraction of users
/// pick, creating the heavy name collisions the paper mentions.
const COMMON: &[&str] = &[
    "anonymous",
    "user",
    "emule",
    "donkey",
    "music",
    "shadow",
    "dragon",
    "ghost",
    "rider",
    "neo",
    "max",
    "alex",
    "david",
    "juan",
    "hans",
];

/// Probability a user takes a common pool name rather than a generated
/// one.
const COMMON_PROB: f64 = 0.25;

/// Generates one nickname.
pub(crate) fn nickname(rng: &mut impl Rng) -> String {
    if rng.gen_bool(COMMON_PROB) {
        let base = COMMON[rng.gen_range(0..COMMON.len())];
        let suffix = SUFFIXES[rng.gen_range(0..SUFFIXES.len())];
        return format!("{base}{suffix}");
    }
    let syllables = rng.gen_range(2..=3);
    let mut name = String::new();
    for _ in 0..syllables {
        name.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
        name.push_str(VOWELS[rng.gen_range(0..VOWELS.len())]);
    }
    name.push_str(SUFFIXES[rng.gen_range(0..SUFFIXES.len())]);
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn nicknames_are_lowercase_ascii() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let n = nickname(&mut rng);
            assert!(!n.is_empty());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()),
                "{n}"
            );
        }
    }

    #[test]
    fn collisions_are_common() {
        // The paper's crawler relied on (and suffered from) name reuse.
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts: HashMap<String, usize> = HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(nickname(&mut rng)).or_insert(0) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 50, "expected heavy collisions, max repeat was {max}");
        // But there is still diversity.
        assert!(counts.len() > 1_000, "only {} distinct names", counts.len());
    }

    #[test]
    fn three_letter_substrings_cover_most_names() {
        // The crawler issues every 3-letter query; nearly every generated
        // name must contain at least one purely alphabetic trigram.
        let mut rng = StdRng::seed_from_u64(3);
        let mut missing = 0;
        for _ in 0..2000 {
            let n = nickname(&mut rng);
            let has_trigram = n
                .as_bytes()
                .windows(3)
                .any(|w| w.iter().all(u8::is_ascii_lowercase));
            if !has_trigram {
                missing += 1;
            }
        }
        assert!(missing < 100, "{missing} names lack an alphabetic trigram");
    }
}
