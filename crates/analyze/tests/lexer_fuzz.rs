//! Byte-mutation fuzz of the analyzer's lexer: whatever the bytes,
//! `lex` returns (no panic) and makes progress (every token consumes at
//! least one character, so the stream is never longer than the source and
//! its line numbers never run backwards or past the last line).

use bconv_analyze::lexer::lex;

/// xorshift64* — the analyzer depends on no crate, its tests included.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

fn mutate(bytes: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = rng.below(out.len());
    // Bytes that open or close the constructs the lexer skips over.
    let spicy = b"\"'/*#r\\\n{}b!.0_";
    match rng.below(5) {
        0 => out[at] ^= 1 << rng.below(8),
        1 => out.insert(at, rng.below(256) as u8),
        2 => out.insert(at, spicy[rng.below(spicy.len())]),
        3 => drop(out.remove(at)),
        _ => out.truncate(at),
    }
    out
}

fn check(src: &str, what: &str) {
    let toks = lex(src);
    assert!(toks.len() <= src.chars().count(), "{what}: more tokens than characters");
    let lines = src.lines().count().max(1) as u32 + 1;
    let mut last = 1;
    for t in &toks {
        assert!(t.line >= last && t.line <= lines, "{what}: line {} after {last}", t.line);
        last = t.line;
    }
}

#[test]
fn mutated_sources_never_panic_the_lexer_and_always_terminate() {
    let seeds: [&str; 4] = [
        include_str!("../src/lexer.rs"),
        include_str!("../src/lints.rs"),
        // Every skip routine's opener, nested and unterminated.
        "fn f<'a>(x: &'a str) -> char { let _ = r##\"a\"#b\"##; /* a /* b */ c */ b'\\'' }",
        "let s = \"esc \\\" \\\\\"; let n = 1_000.5e-3f32 + 0xFF; // tail\n'\\u{1F600}' r#raw /* open",
    ];
    let mut rng = Rng(0x5EED_1E4E);
    for (si, seed) in seeds.iter().enumerate() {
        check(seed, "seed");
        for i in 0..1500 {
            // Up to three stacked mutations; invalid UTF-8 is replaced, as
            // a lossy file read would.
            let mut bytes = seed.as_bytes().to_vec();
            for _ in 0..=rng.below(3) {
                if bytes.is_empty() {
                    break;
                }
                bytes = mutate(&bytes, &mut rng);
            }
            check(&String::from_utf8_lossy(&bytes), &format!("seed {si} mutant {i}"));
        }
    }
}
