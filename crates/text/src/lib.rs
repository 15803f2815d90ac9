//! Text preprocessing for set-similarity joins.
//!
//! Turns raw documents into the representation every join algorithm in this
//! workspace consumes: a [`Collection`] of [`Record`]s whose tokens are
//! *global-order ranks* — after encoding, token id `r` means "the `r`-th
//! token in the ascending-frequency global ordering" (paper §III
//! "Ordering"), so:
//!
//! * comparing two token ids compares their global-order positions;
//! * a record's prefix (its rarest tokens) is simply its first elements;
//! * the token-frequency array is indexed by token id.
//!
//! The crate provides:
//!
//! * [`tokenize`] — word / character-n-gram / word-n-gram tokenizers;
//! * [`corpus`] — raw (pre-ordering) corpora and plain-text loading;
//! * [`ordering`] — the frequency-based global ordering, computed either
//!   locally or with a MapReduce job (as FS-Join's first phase does);
//! * [`encode`](mod@encode) — re-encoding raw corpora into [`Collection`]s;
//! * [`gen`] — synthetic corpus generators with Zipfian token frequencies,
//!   per-dataset length profiles (Email / PubMed / Wiki analogues, paper
//!   Table III) and planted near-duplicate clusters.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod encode;
pub mod gen;
pub mod ordering;
pub mod pool;
pub mod record;
pub mod tokenize;

pub use corpus::RawCorpus;
pub use encode::{encode, encode_mr, encode_with_kind};
pub use gen::{CorpusProfile, GeneratorConfig};
pub use ordering::{GlobalOrdering, OrderingKind};
pub use pool::{
    bitmap_bits_for, BitmapWidthError, PoolOverflow, PooledRecord, TokenPool, TokenSpan,
};
pub use record::{
    Collection, CorpusStats, MalformedRecord, Record, RecordId, RecordView, TokenId, TokenSet,
};
pub use tokenize::Tokenizer;
