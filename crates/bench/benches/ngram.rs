//! Criterion microbenchmarks for the evaluation engine (supports E1/E2):
//! sequential whole-document evaluation vs split-per-sentence evaluation
//! of the N-gram extractor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use splitc_exec::{evaluate_sequential, evaluate_split, CompileOptions, SplitFn};
use splitc_spanner::splitter::native;
use splitc_textgen::{spanners, wiki_corpus, CorpusConfig};
use std::sync::Arc;

fn bench_ngram(c: &mut Criterion) {
    let cfg = CorpusConfig {
        target_bytes: 256 << 10,
        ..Default::default()
    };
    let doc = wiki_corpus(&cfg);
    let split: SplitFn = Arc::new(native::sentences);

    let mut group = c.benchmark_group("ngram_eval");
    group.throughput(Throughput::Bytes(doc.len() as u64));
    group.sample_size(10);
    for n in [2usize, 3] {
        let spanner = CompileOptions::new().compile_spanner(&spanners::ngram_extractor(n));
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| evaluate_sequential(&spanner, &doc))
        });
        group.bench_with_input(BenchmarkId::new("split_1worker", n), &n, |b, _| {
            b.iter(|| evaluate_split(&spanner, &split, &doc, 1))
        });
    }
    group.finish();
}

fn bench_splitting(c: &mut Criterion) {
    let cfg = CorpusConfig {
        target_bytes: 1 << 20,
        ..Default::default()
    };
    let doc = wiki_corpus(&cfg);
    let mut group = c.benchmark_group("splitting");
    group.throughput(Throughput::Bytes(doc.len() as u64));
    group.bench_function("native_sentences", |b| b.iter(|| native::sentences(&doc)));
    group.bench_function("native_paragraphs", |b| b.iter(|| native::paragraphs(&doc)));
    group.bench_function("native_ngrams2", |b| b.iter(|| native::ngrams(&doc, 2)));
    group.finish();
}

criterion_group!(benches, bench_ngram, bench_splitting);
criterion_main!(benches);
