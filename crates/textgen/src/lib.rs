#![warn(missing_docs)]
//! Synthetic corpora and workload spanners for the split-correctness
//! experiments.
//!
//! The paper's Introduction reports speedups on Wikipedia, PubMed,
//! Reuters and Amazon Fine Food Reviews data. Those corpora are not
//! redistributable here; this crate generates *synthetic equivalents*
//! that preserve the properties the experiments depend on — segment
//! count and length distributions, token structure compatible with the
//! formal splitters (sentences end with `.`, tokens are alphanumeric and
//! space-separated, paragraphs/messages are separated by blank lines) —
//! as documented in the top-level `README.md` ("Synthetic corpora").
//!
//! * [`corpus`] — seeded, size-parameterized document and collection
//!   generators.
//! * [`edits`] — seeded Wikipedia-model edit scripts (point edits,
//!   appends, shard rewrites) over sharded corpora: the workload
//!   driver behind the incremental-maintenance benchmark.
//! * [`spangen`] — seeded random spanners, fleet pools and
//!   adversarial documents: the shared generator behind the
//!   repository-wide engine-matrix differential test harness.
//! * [`spanners`] — the workload extractors: N-gram enumeration,
//!   financial-transaction events, negative-sentiment targets, person
//!   names, HTTP request lines.

pub mod corpus;
pub mod edits;
pub mod spangen;
pub mod spanners;

pub use corpus::{
    articles_corpus, fleet_keyword, http_log, keyword_corpus, keyword_corpus_shards, pubmed_corpus,
    reviews_corpus, skewed_articles_corpus, sparse_number_corpus, sparse_number_shards,
    wiki_corpus, wiki_corpus_chunks, wiki_corpus_shards, CorpusConfig, WikiChunks,
};
