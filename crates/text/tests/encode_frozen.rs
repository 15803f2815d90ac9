//! Frozen oracle for the encoder.
//!
//! Every public encode entry point — `encode`, `encode_two` with and
//! without vocabularies, `encode_with_kind` under each ordering kind and
//! `encode_mr` — runs on small corpora that have in-record duplicate
//! tokens, empty records and document-frequency ties, and each resulting
//! collection is reduced to five FNV-1a digests: pool tokens, record
//! lengths (the CSR offsets), bitmaps, `token_freqs` and the rank-indexed
//! vocabulary. The digests are compared with literals, so any change to
//! the encoder's output — a rank, a dropped duplicate, a vocabulary slot —
//! fails here with the case and the plane that moved.
//!
//! `cargo test -p ssj-text --test encode_frozen -- --ignored --nocapture`
//! prints the current values in the literal's format.

use ssj_text::encode::encode_two;
use ssj_text::{
    encode, encode_mr, encode_with_kind, Collection, CorpusProfile, OrderingKind, RawCorpus,
    RecordId, Tokenizer,
};

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `[tokens, lengths, bitmaps, token_freqs, vocab]` digests.
fn digest(c: &Collection) -> [u64; 5] {
    let pool = c.pool();
    let (mut tokens, mut lengths, mut bitmaps, mut freqs, mut vocab) =
        (Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new());
    for (rid, record) in pool.iter().enumerate() {
        for &t in record {
            tokens.word(u64::from(t));
        }
        lengths.word(record.len() as u64);
        for &w in pool.bitmap_of(rid as RecordId) {
            bitmaps.word(w);
        }
    }
    lengths.word(pool.len() as u64);
    for &f in &c.token_freqs {
        freqs.word(f);
    }
    match &c.vocab {
        None => vocab.word(u64::MAX),
        Some(v) => {
            for s in v {
                for &b in s.as_bytes() {
                    vocab.word(u64::from(b));
                }
                vocab.word(u64::MAX);
            }
        }
    }
    [tokens.0, lengths.0, bitmaps.0, freqs.0, vocab.0]
}

/// A text side: duplicates inside records ("a a b"), empty records, and
/// several tokens sharing each document frequency.
fn text(rows: &[&str]) -> RawCorpus {
    RawCorpus::from_texts(rows, &Tokenizer::Words)
}

fn text_r() -> RawCorpus {
    text(&[
        "the cat sat on the mat",
        "",
        "a a b b c",
        "cat dog bird",
        "dog dog dog",
        "mat sat on",
        "",
        "zebra yak xenon walrus",
        "b c a the",
        "bird cat",
    ])
}

fn text_s() -> RawCorpus {
    text(&[
        "the dog sat",
        "walrus walrus ox",
        "",
        "a b c d e",
        "ox yak cat mat",
        "new tokens only here here",
        "e d c b a",
    ])
}

/// A synthetic side over sparse raw ids (no vocabulary): an xorshift stream
/// picks each record's length (0 every seventh record) and tokens from a
/// 40-token domain spread over the `u64` range, so records repeat tokens
/// and frequencies tie.
fn synthetic(seed: u64, records: usize) -> RawCorpus {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let docs = (0..records)
        .map(|i| {
            let len = if i % 7 == 3 { 0 } else { next() % 12 };
            (0..len)
                .map(|_| (next() % 40).wrapping_mul(0x2545_f491_4f6c_dd1d))
                .collect()
        })
        .collect();
    RawCorpus { docs, vocab: None }
}

fn wiki(records: usize, seed: u64) -> RawCorpus {
    CorpusProfile::WikiLike
        .config()
        .with_records(records)
        .with_seed(seed)
        .generate()
}

/// Every case's name and its digests, in a fixed order.
fn cases() -> Vec<(String, [u64; 5])> {
    let mut out = Vec::new();
    let mut add = |name: &str, c: &Collection| out.push((name.to_string(), digest(c)));
    let (tr, ts, sr, ss) = (text_r(), text_s(), synthetic(1, 120), synthetic(2, 90));
    let w = wiki(300, 5);
    add("encode/text", &encode(&tr));
    add("encode/synthetic", &encode(&sr));
    add("encode/wiki", &encode(&w));
    let (r, s) = encode_two(&tr, &ts);
    add("encode_two/text/r", &r);
    add("encode_two/text/s", &s);
    let (r, s) = encode_two(&sr, &ss);
    add("encode_two/synthetic/r", &r);
    add("encode_two/synthetic/s", &s);
    let (r, s) = encode_two(&w, &wiki(200, 6));
    add("encode_two/wiki/r", &r);
    add("encode_two/wiki/s", &s);
    let (r, s) = encode_two(&text(&[]), &ts);
    add("encode_two/empty-r/r", &r);
    add("encode_two/empty-r/s", &s);
    for kind in OrderingKind::all() {
        add(
            &format!("kind/{}/text", kind.name()),
            &encode_with_kind(&tr, kind),
        );
        add(
            &format!("kind/{}/synthetic", kind.name()),
            &encode_with_kind(&sr, kind),
        );
    }
    add("encode_mr/text", &encode_mr(&tr, 3, 2).0);
    add("encode_mr/synthetic", &encode_mr(&sr, 2, 3).0);
    out
}

#[rustfmt::skip]
const FROZEN: &[(&str, [u64; 5])] = &[
    ("encode/text", [0x3881be45b1f69b68, 0x30afc429443ace6a, 0xafaf912c725fc04f, 0x7a5cb2feff276ac4, 0x3aefa12846847f45]),
    ("encode/synthetic", [0x26a40d6361df8402, 0x6543cddc27dcbb95, 0xfd30f284375e97a1, 0xcecc6678785d9fdd, 0x8cf51a8bfca3883d]),
    ("encode/wiki", [0xba41cbce603498ef, 0x0e07423b2447080b, 0x43aaa47429467abf, 0x3d360dcc563905f7, 0x8cf51a8bfca3883d]),
    ("encode_two/text/r", [0xa51bef2fb0639914, 0x30afc429443ace6a, 0xc7b872fc54ac33e4, 0xe5704e02d5e80527, 0xaf86e8e23d060a21]),
    ("encode_two/text/s", [0xb40980c88a31ba09, 0x002d1cbdeed89aa3, 0x9936c860a579b072, 0xe5704e02d5e80527, 0xaf86e8e23d060a21]),
    ("encode_two/synthetic/r", [0x4f3f4669d4df5f52, 0x6543cddc27dcbb95, 0xed9c519bc4552cb5, 0x21c67f79a1b1f8e3, 0x8cf51a8bfca3883d]),
    ("encode_two/synthetic/s", [0x707f44041c67a2e9, 0xcdf06a1844e87997, 0x0746955aca7f0d34, 0x21c67f79a1b1f8e3, 0x8cf51a8bfca3883d]),
    ("encode_two/wiki/r", [0x2062da5f9eeb2dad, 0x0e07423b2447080b, 0xa24f1aa020fa422f, 0x0484e819b19e8756, 0x8cf51a8bfca3883d]),
    ("encode_two/wiki/s", [0x51b9c88043b35d68, 0x1873f82dee883ae5, 0x352f831f87571876, 0x0484e819b19e8756, 0x8cf51a8bfca3883d]),
    ("encode_two/empty-r/r", [0xcbf29ce484222325, 0xa8c7f832281a39c5, 0xcbf29ce484222325, 0x458a646e60608b04, 0x88a0b24c61cba3d1]),
    ("encode_two/empty-r/s", [0xcc0dfe9104bda9ee, 0x002d1cbdeed89aa3, 0x42702b417780ba3a, 0x458a646e60608b04, 0x88a0b24c61cba3d1]),
    ("kind/freq-asc/text", [0x3881be45b1f69b68, 0x30afc429443ace6a, 0xafaf912c725fc04f, 0x7a5cb2feff276ac4, 0x3aefa12846847f45]),
    ("kind/freq-asc/synthetic", [0x26a40d6361df8402, 0x6543cddc27dcbb95, 0xfd30f284375e97a1, 0xcecc6678785d9fdd, 0x8cf51a8bfca3883d]),
    ("kind/freq-desc/text", [0xba7d916278434c85, 0x30afc429443ace6a, 0x68bcae4738fe17b2, 0x85cf7b8a97d7f3a4, 0x267648c7f15deac5]),
    ("kind/freq-desc/synthetic", [0xeb4923ed981ae482, 0x6543cddc27dcbb95, 0xa1f46296f5834f6c, 0x61a2c6e19af388dd, 0x8cf51a8bfca3883d]),
    ("kind/lexicographic/text", [0xf1f1a9b051c7d264, 0x30afc429443ace6a, 0x7ac774fbf8c7ef02, 0x4ca04fa42222f1c4, 0x3fd483fa64165135]),
    ("kind/lexicographic/synthetic", [0x10acb24bb103241f, 0x6543cddc27dcbb95, 0xde2064d2a203a5ab, 0x1ca13aff70d195fd, 0x8cf51a8bfca3883d]),
    ("encode_mr/text", [0x3881be45b1f69b68, 0x30afc429443ace6a, 0xafaf912c725fc04f, 0x7a5cb2feff276ac4, 0x3aefa12846847f45]),
    ("encode_mr/synthetic", [0x26a40d6361df8402, 0x6543cddc27dcbb95, 0xfd30f284375e97a1, 0xcecc6678785d9fdd, 0x8cf51a8bfca3883d]),
];

#[test]
fn encoder_output_is_frozen() {
    let got = cases();
    assert_eq!(got.len(), FROZEN.len(), "case count");
    const PLANES: [&str; 5] = ["tokens", "lengths", "bitmaps", "token_freqs", "vocab"];
    for ((name, have), (want_name, want)) in got.iter().zip(FROZEN) {
        assert_eq!(name, want_name);
        for (plane, (h, w)) in PLANES.iter().zip(have.iter().zip(want)) {
            assert_eq!(h, w, "{name}: {plane} digest moved");
        }
    }
}

#[test]
#[ignore = "prints the current digests in the literal's format"]
fn print_frozen_literal() {
    for (name, d) in cases() {
        println!(
            "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
            d[0], d[1], d[2], d[3], d[4]
        );
    }
}
