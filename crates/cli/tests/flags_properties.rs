//! Randomized tests for the CLI argument layer: arbitrary flag soups must
//! never panic, and malformed numbers must come back as clean errors.
//! Cases are drawn from a seeded [`dbscout_rng::Rng`] for reproducibility.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use dbscout_rng::Rng;

fn run(args: Vec<String>) -> Result<String, String> {
    // Reach the parser through the binary's public behavior: unknown
    // subcommands and malformed flags must come back as clean errors.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_dbscout"))
        .args(&args)
        .output()
        .expect("binary runs");
    if output.status.success() {
        Ok(String::from_utf8_lossy(&output.stdout).into_owned())
    } else {
        Err(String::from_utf8_lossy(&output.stderr).into_owned())
    }
}

/// A random word of 1..=12 chars drawn from `[a-z0-9./-]` — the same
/// alphabet the original fuzz pattern used.
fn word(rng: &mut Rng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789./-";
    let len = rng.gen_range(1usize..=12);
    (0..len)
        .map(|_| char::from(ALPHABET[rng.gen_range(0..ALPHABET.len())]))
        .collect()
}

#[test]
fn arbitrary_flag_soup_never_panics() {
    let mut rng = Rng::seed_from_u64(0x9001);
    for _ in 0..16 {
        let n = rng.gen_range(0usize..6);
        let words: Vec<String> = (0..n).map(|_| word(&mut rng)).collect();
        // Whatever the words are, the process must exit cleanly (success
        // or a usage error), never abort.
        let result = run(words);
        if let Err(stderr) = result {
            assert!(stderr.contains("error:"), "no clean error: {stderr}");
            assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
        }
    }
}

#[test]
fn detect_validates_numbers() {
    // 1e-320 and 1e200 parse, but their squares underflow and overflow.
    for eps in ["-1", "0", "abc", "", "1e-320", "1e200"] {
        let err = run(vec![
            "detect".into(),
            "--input".into(),
            "/nonexistent.csv".into(),
            "--eps".into(),
            eps.to_string(),
            "--min-pts".into(),
            "5".into(),
        ])
        .unwrap_err();
        assert!(err.contains("error:"), "{err}");
        assert!(err.contains("--eps") || err.contains("eps must"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}
